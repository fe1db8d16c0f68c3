// Wire protocol for the prediction server: one JSON object per line,
// newline-terminated, over a plain TCP stream. Human-speakable with nc:
//
//   $ echo '{"id":"1","src":0,"dst":1,"bytes":5e10,"files":20}' | nc host 7070
//   {"id":"1","ok":true,"rate_mbps":312.5,"model":"edge","version":1}
//
// Hot clients can negotiate a length-prefixed binary framing instead: in
// JSON mode the exact 8 bytes "XFLBIN1\n" at a frame boundary switch the
// connection to binary; the server echoes the same 8 bytes as an ack and
// every subsequent frame (both directions) is
//
//   u32 length | u8 type | payload[length - 1]      (little-endian)
//
// where `length` counts the type byte plus the payload. Type kPredict /
// kPredictOk / kExplain / kExplainOk / kError carry packed predict and
// explain traffic (doubles travel as raw IEEE-754 bits, so binary
// replies are bit-identical to JSON ones);
// type kJson wraps one JSON document, so admin/feedback/stats reuse the
// JSON grammar inside binary framing. The codec below is shared by the
// server, the client, and the property tests: decode_binary_frame never
// reads past the buffer, returns kNeedMore on any truncation (every byte
// offset), and rejects oversized or unknown frames as kBad.
//
// Request frames:
//   predict:  {"id":ID, "src":N, "dst":N, "bytes":X, ["files":N],
//              ["dirs":N], ["concurrency":N], ["parallelism":N],
//              ["deadline_ms":N], ["load":{"k_sout":X, ... }],
//              ["explain":true], ["top_k":N]}   (explain: the response
//              carries the per-feature Saabas attribution of the rate;
//              top_k keeps only the N strongest contributions, 0 = all)
//   feedback: {"id":ID, "feedback":"t17", "observed_mbps":X}
//             (reports the observed average rate of a completed transfer
//              back to the prediction it was scheduled on, by trace id)
//   admin:    {"cmd":"ping"|"stats"|"reload"|"retrain-status", ["id":ID],
//              ["path":"m.txt"], ["registry":true]}   (registry: stats
//              embeds the full metrics-registry snapshot under "metrics";
//              retrain-status reports the background refit worker)
//
// Response frames always carry "ok". Success echoes the request id;
// failures carry a machine-readable "error" code (kErr* below) plus a
// human-readable "message". Predict responses (success and failure alike)
// also carry "trace_id" — the server-assigned request trace id feedback
// joins on — and "server_ms", the in-server latency from frame receipt to
// response serialisation. Responses on one connection may be reordered
// relative to requests (micro-batching), so clients match on "id".
//
// Parsing is strict: unknown keys, wrong types, and out-of-range values
// are rejected as kBad frames, which the server answers with a
// "bad_request" error instead of dying — both ends live in this repo, so
// strictness catches client bugs at the boundary. The parsing contract:
//   - one pass over the frame's bytes, in place, with no DOM; the JSON
//     grammar is parse_json's (json.hpp), values outside the schema
//     included, so malformed JSON anywhere in a frame is kBad;
//   - a key given twice keeps its last value ("load" keeps its last
//     object whole);
//   - a frame with several faults reports the first of them in a fixed
//     order: JSON syntax, "id", then the frame kind's own checks, among
//     which the keys are taken in byte order;
//   - parse_frame never throws: every failure is a kBad frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include <vector>

#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "serve/json.hpp"
#include "serve/monitor.hpp"

namespace xfl::serve {

/// Upper bound on one request line; longer frames are a protocol error.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

// Machine-readable error codes carried in the "error" response field.
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrTimeout = "timeout";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrInternal = "internal_error";
inline constexpr const char* kErrReloadFailed = "reload_failed";
/// A partially-received frame stalled past the server's patience; the
/// connection is closed after this structured error goes out.
inline constexpr const char* kErrFrameTimeout = "frame_timeout";

/// The 8-byte preamble that flips a JSON-mode connection to binary
/// framing; the server acks by echoing it. Deliberately not valid JSON.
inline constexpr std::string_view kBinaryMagic{"XFLBIN1\n", 8};

struct PredictRequest {
  core::PlannedTransfer transfer;
  features::ContentionFeatures load;
  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline.
  /// Explain request: the response carries the Saabas attribution of the
  /// prediction (ReplyTo::top_k strongest contributions).
  bool explain = false;
};

struct AdminRequest {
  std::string cmd;   ///< "ping", "stats", "reload", or "retrain-status".
  std::string path;  ///< reload only; empty = server's configured path.
  bool registry = false;  ///< stats only; embed the metrics registry.
};

struct FeedbackRequest {
  std::uint64_t trace_id = 0;   ///< Parsed from the "feedback" field.
  double observed_mbps = 0.0;   ///< Observed average rate; finite, > 0.
};

/// Where a reply goes and the shape it takes. The parser fills id,
/// wire_id, packed and top_k; the server sets wrap when it admits the
/// request. encode_reply is the only reader.
struct ReplyTo {
  std::string id;              ///< Request id, echoed by JSON replies.
  std::uint64_t wire_id = 0;   ///< Id of a packed request.
  bool packed = false;         ///< Arrived packed; the reply is packed too.
  /// The connection negotiated binary framing: a JSON reply travels
  /// inside a kJson frame.
  bool wrap = false;
  /// Explain replies keep the top_k strongest contributions (0 = all).
  std::uint16_t top_k = 0;
};

/// One parsed request line. kBad carries the reason (and the reply
/// address as far as it could still be extracted, so the error response
/// stays correlatable).
struct Frame {
  enum class Kind { kPredict, kFeedback, kAdmin, kBad };
  Kind kind = Kind::kBad;
  ReplyTo reply;
  PredictRequest predict;
  FeedbackRequest feedback;
  AdminRequest admin;
  std::string error;
};

/// Parse one request line (no trailing newline). Never throws: malformed
/// input yields kBad. The frame owns its strings; `line` may go away.
Frame parse_frame(std::string_view line);

/// Trace ids travel as "t<decimal>" strings ("t17") so they are visually
/// distinct from request ids. parse_trace_id accepts exactly that form.
std::string trace_id_string(std::uint64_t trace_id);
bool parse_trace_id(std::string_view text, std::uint64_t& trace_id);

/// Serialise a predict request (client side). `load` is emitted only when
/// any field is non-zero; ids are always emitted as JSON strings.
std::string predict_request_line(const std::string& id,
                                 const core::PlannedTransfer& transfer,
                                 const features::ContentionFeatures& load = {},
                                 std::uint64_t deadline_ms = 0);

/// Serialise an explain request (client side): a predict request with
/// "explain":true and, when top_k > 0, "top_k".
std::string explain_request_line(const std::string& id,
                                 const core::PlannedTransfer& transfer,
                                 const features::ContentionFeatures& load = {},
                                 std::uint64_t deadline_ms = 0,
                                 std::uint16_t top_k = 0);

/// Serialise a feedback request (client side).
std::string feedback_request_line(const std::string& id,
                                  const std::string& trace_id,
                                  double observed_mbps);

/// Quantile summary of one stage histogram, embedded in stats responses.
struct StageQuantiles {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Everything the `stats` admin command reports. The server fills this
/// from the live registry + monitor; the builder only serialises.
struct StatsReport {
  std::size_t queue_depth = 0;
  std::size_t connections = 0;  ///< Currently open connections.
  std::size_t shards = 0;       ///< Batcher shard (worker) count.
  std::uint64_t steals = 0;     ///< Items rebalanced between shards.
  std::uint64_t model_version = 0;
  /// Batch-inference kernel the serving model dispatches to ("scalar" /
  /// "quantized", chosen by the code from the model and the CPU) — names
  /// the hardware path behind the latency numbers so stats are
  /// comparable across hosts.
  std::string kernel;
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  /// Seconds since the server started accepting connections.
  double uptime_seconds = 0.0;
  /// Stage latency quantiles, microseconds: name -> summary.
  std::vector<std::pair<std::string, StageQuantiles>> latency_us;
  /// Batch size distribution (rows per predict batch).
  StageQuantiles batch_size;
  std::uint64_t batches = 0;
  std::uint64_t batch_rows = 0;
  // Drift monitor block.
  ServeMonitor::Options drift_options;
  bool drift_alarm = false;
  std::uint64_t drift_alarms_total = 0;
  std::uint64_t feedback_count = 0;
  std::uint64_t feedback_unmatched = 0;
  std::map<std::uint64_t, ServeMonitor::VersionStats> versions;
  /// Last attribution-shift report (valid == false until the first
  /// drift.attribution event fires); serialised under "drift" as
  /// "attribution_shift".
  ServeMonitor::AttributionShift attribution_shift;
  /// Raw Registry::to_json() output, spliced under "metrics" when the
  /// request set "registry":true. Empty = omitted.
  std::string registry_json;
};

/// What a predict or explain request came to: produced by the batcher
/// for admitted requests, and by the server for rejections, bad frames
/// and admin failures.
struct PredictOutcome {
  bool ok = false;
  double rate_mbps = 0.0;
  bool edge_model = false;          ///< Dedicated edge model vs. global.
  std::uint64_t model_version = 0;  ///< ModelHost version that answered.
  const char* error = nullptr;      ///< Protocol error code when !ok.
  std::string message;
  /// Explain items only: the full Saabas attribution of rate_mbps (the
  /// rate itself is bit-identical to the plain predict path; rate_mbps
  /// and edge_model above repeat the explanation's).
  bool explained = false;
  core::RateExplanation explanation;
};

/// The one predict-path reply encoder (server side). `to` picks the wire
/// shape: a kPredictOk / kExplainOk / kError frame when to.packed, else
/// one newline-terminated JSON object — inside a kJson frame when
/// to.wrap. `outcome` picks the content:
///   - success: id, rate_mbps, model, version, trace_id, server_ms;
///   - explained success: also raw/bias/interval and the to.top_k
///     strongest contributions (0 = all), each {"feature","mbps"}, ordered
///     by |mbps| descending (ties by feature index);
///   - failure: the error code and message, plus trace_id and server_ms.
/// JSON omits trace_id/server_ms exactly when trace_id == 0 (requests the
/// server never traced: bad frames, failed connections, reload); packed
/// replies always carry both. Packed layouts (after the frame header):
///   kPredictOk  u64 id | f64 rate | u8 flags (1 = edge) | u64 version |
///               u64 trace_id | f64 server_ms
///   kExplainOk  the kPredictOk fields | f64 raw | bias | low | high |
///               u16 count | count x (u16 name_len, name, f64 mbps)
///   kError      u64 id | u64 trace_id | f64 server_ms | u16 len, code |
///               u16 len, message (texts capped at 0xffff bytes)
/// Doubles travel in JSON as the number codec writes them (17 significant
/// digits, common/number.hpp) and as raw IEEE-754 bits when packed,
/// so both decode to the served double, and with top_k == 0 the
/// contributions summed in ascending feature order plus bias_mbps (added
/// last) rebuild raw_mbps bit-exactly. server_ms is in-server latency
/// from frame receipt to reply (fractional ms).
std::string encode_reply(const ReplyTo& to, const PredictOutcome& outcome,
                         std::uint64_t trace_id, double server_ms);

// Admin and feedback replies: one newline-terminated JSON object each.
std::string feedback_response(const std::string& id,
                              const std::string& trace_id,
                              const ServeMonitor::FeedbackResult& result);
std::string pong_response(const std::string& id, std::uint64_t model_version);
std::string reload_response(const std::string& id,
                            std::uint64_t model_version);
/// `retrain_json` is the retrain worker's status object (already
/// serialised); empty means no retrain service is attached and the reply
/// reports {"enabled":false}.
std::string retrain_status_response(const std::string& id,
                                    const std::string& retrain_json);
std::string stats_response(const std::string& id, const StatsReport& report);

// ------------------------------------------------------------ binary codec

/// Frame types of the length-prefixed binary protocol (see file header).
enum class BinaryType : std::uint8_t {
  kJson = 0,       ///< Payload is one JSON request/response document.
  kPredict = 1,    ///< Packed predict request.
  kPredictOk = 2,  ///< Packed predict success response.
  kError = 3,      ///< Packed error response.
  kExplain = 4,    ///< Packed explain request (predict + u16 top_k).
  kExplainOk = 5,  ///< Packed explain success response.
};

/// Result of scanning a byte buffer for one binary frame.
struct BinaryDecode {
  enum class Status {
    kNeedMore,  ///< A complete frame has not arrived yet; read more.
    kFrame,     ///< One well-formed frame; `consumed` bytes to discard.
    kBad,       ///< Framing is unrecoverable (oversize/unknown type).
  };
  Status status = Status::kNeedMore;
  std::size_t consumed = 0;     ///< Buffer bytes this frame occupied.
  BinaryType type = BinaryType::kJson;
  std::string_view payload;     ///< View into the caller's buffer.
  std::string error;            ///< kBad reason.
};

/// Scan `buffer` for one frame. Never throws, never reads past the
/// buffer: any truncation — at every byte offset — is kNeedMore, and
/// only a length above kMaxFrameBytes or an unknown type is kBad
/// (framing cannot resync after either, so the caller should close).
BinaryDecode decode_binary_frame(std::string_view buffer);

/// Serialise one packed predict request (client side).
std::string binary_predict_request(std::uint64_t id,
                                   const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load = {},
                                   std::uint64_t deadline_ms = 0);

/// Serialise one packed explain request: the predict payload with a
/// trailing u16 top_k (0 = all features).
std::string binary_explain_request(std::uint64_t id,
                                   const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load = {},
                                   std::uint64_t deadline_ms = 0,
                                   std::uint16_t top_k = 0);

/// Decode a kPredict payload with the same strictness as the JSON path
/// (range/finite checks). Malformed payloads yield kind kBad with the
/// wire id preserved (when readable) so the error stays correlatable;
/// never throws.
Frame parse_binary_predict(std::string_view payload);

/// Decode a kExplain payload (parse_binary_predict plus the trailing
/// top_k); the frame comes back with predict.explain set.
Frame parse_binary_explain(std::string_view payload);

/// Wrap one JSON document (trailing newline optional, stripped) in a
/// kJson frame, for admin/feedback traffic on a binary connection.
std::string binary_json_frame(std::string_view json_document);

/// A decoded kPredictOk / kExplainOk / kError payload (client side).
struct BinaryPredictReply {
  std::uint64_t id = 0;
  bool ok = false;
  double rate_mbps = 0.0;
  bool edge_model = false;
  std::uint64_t model_version = 0;
  std::uint64_t trace_id = 0;
  double server_ms = 0.0;
  std::string error;    ///< Error code when !ok.
  std::string message;
  // kExplainOk only: attribution block (see encode_reply).
  bool explained = false;
  double raw_mbps = 0.0;
  double bias_mbps = 0.0;
  double low_mbps = 0.0;
  double high_mbps = 0.0;
  std::vector<std::pair<std::string, double>> contributions;
};

/// Decode a reply payload; throws std::runtime_error on malformed input
/// (a client facing a corrupt server has no structured channel left).
BinaryPredictReply parse_binary_reply(BinaryType type,
                                      std::string_view payload);

}  // namespace xfl::serve
