// The three workloads. Each runs one cold pass in this process: set-up,
// then one timed section, then the output gates. A traced pass also records
// spans around every layer call and reports the per-layer metrics.
#pragma once

#include "record.h"

namespace perfbench {

/// Fig9 event-engine sweep on the 460-AS paper topology: 9 attacker
/// fractions x 3 origin sets x 10 attacker sets, full deployment and none.
PassReport run_paper_sweep(const Options& options);

/// One run_multi_prefix call on the 20,200-AS generated Internet.
PassReport run_internet_multiprefix(const Options& options);

/// StreamDetector::run over the full paper trace with churn and attacks.
PassReport run_stream_paper_trace(const Options& options);

}  // namespace perfbench
