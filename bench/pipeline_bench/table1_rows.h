#ifndef GVA_BENCH_PIPELINE_BENCH_TABLE1_ROWS_H_
#define GVA_BENCH_PIPELINE_BENCH_TABLE1_ROWS_H_

// The fourteen synthetic stand-ins for the datasets of the paper's Table 1,
// each with the (window, paa, alphabet) triple it is searched at. They are
// defined once, by bench/table1_distance_calls.cc; table1_rows.cc compiles
// that definition into pipeline_bench.

#include <string>
#include <vector>

#include "datasets/labeled_series.h"

namespace gva::bench {

struct Table1Row {
  std::string name;
  LabeledSeries data;
};

/// The rows of bench/table1_distance_calls.cc, in its order.
std::vector<Table1Row> MakeTable1Rows();

}  // namespace gva::bench

#endif  // GVA_BENCH_PIPELINE_BENCH_TABLE1_ROWS_H_
