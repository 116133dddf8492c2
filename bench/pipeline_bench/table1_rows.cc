// The Table-1 rows have one definition, MakeRows() in
// bench/table1_distance_calls.cc. That function has internal linkage, so
// this file compiles the table's source into pipeline_bench, with its
// main() renamed so it does not clash, and hands the rows on. An edit to
// the table's rows therefore changes what the benchmark measures, and a
// change to their shape fails this build instead of drifting silently.

#define main table1_distance_calls_main
#include "table1_distance_calls.cc"
#undef main

#include "table1_rows.h"

namespace gva::bench {

std::vector<Table1Row> MakeTable1Rows() {
  std::vector<Table1Row> rows;
  for (Row& row : MakeRows()) {
    rows.push_back({std::move(row.name), std::move(row.data)});
  }
  return rows;
}

}  // namespace gva::bench
