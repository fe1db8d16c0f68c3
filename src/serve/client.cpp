#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/protocol.hpp"

namespace xfl::serve {

PredictionClient::PredictionClient(const std::string& host,
                                   std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0)
    throw std::runtime_error(std::string("PredictionClient: socket: ") +
                             std::strerror(errno));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &address.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("PredictionClient: bad host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof address) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("PredictionClient: connect to " + numeric + ":" +
                             std::to_string(port) + ": " + what);
  }
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
}

PredictionClient::~PredictionClient() {
  if (fd_ >= 0) ::close(fd_);
}

void PredictionClient::send_raw(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0)
      throw std::runtime_error(std::string("PredictionClient: send: ") +
                               std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
}

void PredictionClient::send_line(const std::string& line) {
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  send_raw(framed);
}

void PredictionClient::negotiate_binary() {
  if (binary_) return;
  if (!buffer_.empty())
    throw std::runtime_error(
        "PredictionClient: negotiate_binary with unread replies buffered");
  send_raw(kBinaryMagic);
  while (buffer_.size() < kBinaryMagic.size()) {
    char chunk[64];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0)
      throw std::runtime_error(
          "PredictionClient: connection closed during binary negotiation");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  if (buffer_.compare(0, kBinaryMagic.size(), kBinaryMagic) != 0)
    throw std::runtime_error("PredictionClient: server refused binary mode");
  buffer_.erase(0, kBinaryMagic.size());
  binary_ = true;
}

std::pair<BinaryType, std::string> PredictionClient::read_frame() {
  for (;;) {
    const BinaryDecode decoded = decode_binary_frame(buffer_);
    if (decoded.status == BinaryDecode::Status::kFrame) {
      const BinaryType type = decoded.type;
      std::string payload(decoded.payload);
      buffer_.erase(0, decoded.consumed);
      return {type, std::move(payload)};
    }
    if (decoded.status == BinaryDecode::Status::kBad)
      throw std::runtime_error("PredictionClient: bad binary frame: " +
                               decoded.error);
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0)
      throw std::runtime_error(
          "PredictionClient: connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void PredictionClient::send_document(const std::string& line) {
  if (binary_)
    send_raw(binary_json_frame(line));
  else
    send_line(line);
}

std::string PredictionClient::read_document() {
  if (!binary_) return read_line();
  // Packed predict replies arriving while an admin/feedback call waits
  // can only belong to pipelined low-level traffic; skip them.
  for (;;) {
    auto [type, payload] = read_frame();
    if (type == BinaryType::kJson) return payload;
  }
}

std::string PredictionClient::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0)
      throw std::runtime_error(
          "PredictionClient: connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

PredictReply PredictionClient::parse_reply(const std::string& line) {
  const JsonValue root = parse_json(line);
  if (!root.is_object())
    throw std::runtime_error("PredictionClient: reply is not an object");
  return parse_reply(root);
}

PredictReply PredictionClient::parse_reply(const JsonValue& root) {
  PredictReply reply;
  if (const JsonValue* id = root.find("id"); id && id->is_string())
    reply.id = id->string;
  if (const JsonValue* ok = root.find("ok"); ok && ok->is_bool())
    reply.ok = ok->boolean;
  if (const JsonValue* rate = root.find("rate_mbps"); rate && rate->is_number())
    reply.rate_mbps = rate->number;
  if (const JsonValue* model = root.find("model"); model && model->is_string())
    reply.model = model->string;
  if (const JsonValue* v = root.find("version"); v && v->is_number())
    reply.model_version = static_cast<std::uint64_t>(v->number);
  if (const JsonValue* trace = root.find("trace_id");
      trace && trace->is_string())
    reply.trace_id = trace->string;
  if (const JsonValue* ms = root.find("server_ms"); ms && ms->is_number())
    reply.server_ms = ms->number;
  if (const JsonValue* error = root.find("error"); error && error->is_string())
    reply.error = error->string;
  if (const JsonValue* msg = root.find("message"); msg && msg->is_string())
    reply.message = msg->string;
  if (const JsonValue* v = root.find("raw_mbps"); v && v->is_number())
    reply.raw_mbps = v->number;
  if (const JsonValue* v = root.find("bias_mbps"); v && v->is_number())
    reply.bias_mbps = v->number;
  if (const JsonValue* v = root.find("low_mbps"); v && v->is_number())
    reply.low_mbps = v->number;
  if (const JsonValue* v = root.find("high_mbps"); v && v->is_number())
    reply.high_mbps = v->number;
  if (const JsonValue* c = root.find("contributions"); c && c->is_array()) {
    for (const JsonValue& entry : c->array) {
      if (!entry.is_object()) continue;
      const JsonValue* feature = entry.find("feature");
      const JsonValue* mbps = entry.find("mbps");
      if (feature && feature->is_string() && mbps && mbps->is_number())
        reply.contributions.emplace_back(feature->string, mbps->number);
    }
  }
  return reply;
}

JsonValue PredictionClient::round_trip(const std::string& line,
                                       const std::string& id) {
  send_document(line);
  // Replies can be reordered by the batcher relative to other traffic on
  // this connection, so skip documents until ours appears.
  for (;;) {
    JsonValue root = parse_json(read_document());
    if (!root.is_object())
      throw std::runtime_error("PredictionClient: reply is not an object");
    const JsonValue* reply_id = root.find("id");
    if (reply_id != nullptr && reply_id->is_string() &&
        reply_id->string == id)
      return root;
  }
}

JsonValue PredictionClient::admin(std::string_view cmd,
                                  std::string_view extra) {
  const std::string id = std::to_string(next_id_++);
  std::string line = "{\"cmd\":";
  append_json_string(line, cmd);
  line += ",\"id\":";
  append_json_string(line, id);
  line += extra;
  line += '}';
  return round_trip(line, id);
}

PredictReply PredictionClient::packed_reply(std::uint64_t id) {
  for (;;) {
    auto [type, payload] = read_frame();
    if (type == BinaryType::kJson) continue;  // Pipelined admin traffic.
    BinaryPredictReply packed = parse_binary_reply(type, payload);
    if (packed.id != id) continue;
    PredictReply reply;
    reply.id = std::to_string(id);
    reply.ok = packed.ok;
    reply.rate_mbps = packed.rate_mbps;
    if (packed.ok) reply.model = packed.edge_model ? "edge" : "global";
    reply.model_version = packed.model_version;
    if (packed.trace_id != 0) reply.trace_id = trace_id_string(packed.trace_id);
    reply.server_ms = packed.server_ms;
    reply.error = std::move(packed.error);
    reply.message = std::move(packed.message);
    reply.raw_mbps = packed.raw_mbps;
    reply.bias_mbps = packed.bias_mbps;
    reply.low_mbps = packed.low_mbps;
    reply.high_mbps = packed.high_mbps;
    reply.contributions = std::move(packed.contributions);
    return reply;
  }
}

PredictReply PredictionClient::predict(
    const core::PlannedTransfer& transfer,
    const features::ContentionFeatures& load, std::uint64_t deadline_ms) {
  const std::uint64_t id = next_id_++;
  if (binary_) {
    // Packed hot path: kPredict out, kPredictOk/kError back, ids numeric.
    send_raw(binary_predict_request(id, transfer, load, deadline_ms));
    return packed_reply(id);
  }
  const std::string text = std::to_string(id);
  return parse_reply(round_trip(
      predict_request_line(text, transfer, load, deadline_ms), text));
}

PredictReply PredictionClient::explain(
    const core::PlannedTransfer& transfer,
    const features::ContentionFeatures& load, std::uint64_t deadline_ms,
    std::uint16_t top_k) {
  const std::uint64_t id = next_id_++;
  if (binary_) {
    send_raw(binary_explain_request(id, transfer, load, deadline_ms, top_k));
    return packed_reply(id);
  }
  const std::string text = std::to_string(id);
  return parse_reply(round_trip(
      explain_request_line(text, transfer, load, deadline_ms, top_k), text));
}

FeedbackReply PredictionClient::feedback(const std::string& trace_id,
                                         double observed_mbps) {
  const std::string id = std::to_string(next_id_++);
  const JsonValue root =
      round_trip(feedback_request_line(id, trace_id, observed_mbps), id);
  FeedbackReply reply;
  reply.id = id;
  if (const JsonValue* ok = root.find("ok"); ok && ok->is_bool())
    reply.ok = ok->boolean;
  if (const JsonValue* m = root.find("matched"); m && m->is_bool())
    reply.matched = m->boolean;
  if (const JsonValue* v = root.find("ape_pct"); v && v->is_number())
    reply.ape_pct = v->number;
  if (const JsonValue* v = root.find("predicted_mbps"); v && v->is_number())
    reply.predicted_mbps = v->number;
  if (const JsonValue* v = root.find("version"); v && v->is_number())
    reply.model_version = static_cast<std::uint64_t>(v->number);
  if (const JsonValue* v = root.find("mdape_pct"); v && v->is_number())
    reply.mdape_pct = v->number;
  if (const JsonValue* v = root.find("window"); v && v->is_number())
    reply.window = static_cast<std::uint64_t>(v->number);
  if (const JsonValue* a = root.find("alarm"); a && a->is_bool())
    reply.alarm = a->boolean;
  return reply;
}

bool PredictionClient::ping() { return parse_reply(admin("ping")).ok; }

std::uint64_t PredictionClient::reload(const std::string& path) {
  std::string extra;
  if (!path.empty()) {
    extra = ",\"path\":";
    append_json_string(extra, path);
  }
  const PredictReply reply = parse_reply(admin("reload", extra));
  if (!reply.ok)
    throw std::runtime_error("PredictionClient: reload failed: " +
                             reply.message);
  return reply.model_version;
}

JsonValue PredictionClient::stats(bool registry) {
  return admin("stats", registry ? ",\"registry\":true" : "");
}

JsonValue PredictionClient::retrain_status() {
  return admin("retrain-status");
}

}  // namespace xfl::serve
