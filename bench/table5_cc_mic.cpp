// Table 5: Pearson correlation coefficient (CC) vs maximal information
// coefficient (MIC) between each feature and the transfer rate, for four
// heavily used edges. The paper's finding: several features show much
// higher MIC than |CC| — nonlinear dependence a linear model cannot use —
// and the constant C and P columns score 0.00 MIC ("-" CC).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "features/dataset.hpp"
#include "ml/mic.hpp"

int main() {
  using namespace xfl;
  xflbench::print_banner(
      "Table 5 - Pearson CC vs MIC per feature, four heavy edges",
      "MIC >> |CC| for several load features; constant C/P give MIC 0.00");

  const auto context = xflbench::production_context();
  const auto scenario = xflbench::production_scenario();
  auto edges = xflbench::heavy_edges(context);
  if (edges.size() > 4) edges.resize(4);

  features::DatasetOptions options;
  options.load_threshold = 0.5;

  std::size_t nonlinear_features = 0;
  for (const auto& edge : edges) {
    const auto dataset =
        features::build_edge_dataset(context.log, context.contention, edge, options);
    TextTable table;
    table.set_title("\nedge " +
                    xflbench::endpoint_name(scenario, edge.src) + " -> " +
                    xflbench::endpoint_name(scenario, edge.dst) + "  (n=" +
                    std::to_string(dataset.rows()) + ")");
    std::vector<std::string> header = {"metric"};
    for (const auto& name : dataset.feature_names) header.push_back(name);
    table.set_header(header);

    std::vector<std::string> cc_row = {"CC"};
    std::vector<std::string> mic_row = {"MIC"};
    for (std::size_t c = 0; c < dataset.cols(); ++c) {
      const auto column = dataset.x.column(c);
      const double cc = pearson(column, dataset.y);
      const double information = ml::mic(column, dataset.y);
      const bool constant = [&column] {
        for (const double v : column)
          if (v != column[0]) return false;
        return true;
      }();
      cc_row.push_back(constant ? "-" : TextTable::num(std::fabs(cc), 2));
      mic_row.push_back(TextTable::num(information, 2));
      if (!constant && information > std::fabs(cc) + 0.15)
        ++nonlinear_features;
    }
    table.add_row(cc_row);
    table.add_row(mic_row);
    table.print(stdout);
  }

  std::printf(
      "\nfeatures with MIC exceeding |CC| by > 0.15 across the four edges: %zu\n",
      nonlinear_features);
  xflbench::print_comparison(
      "Paper Table 5: on each of four edges, several inputs (e.g. Kdin, "
      "Kdout, Nb, Gdst) have MIC well above the Pearson CC (e.g. CC 0.03 "
      "vs MIC 0.24), revealing nonlinear dependencies, while constant C/P "
      "columns show '-' CC and 0.00 MIC. Expect a nonzero count of "
      "MIC>>|CC| features above and zeros for any constant column.");
  return 0;
}
