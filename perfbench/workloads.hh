/**
 * @file
 * The benchmark's workloads.  Each runs for ctx.seconds, checks every
 * verdict against a known answer, prints its report and returns the
 * process exit code.
 */

#ifndef LKMM_PERFBENCH_WORKLOADS_HH
#define LKMM_PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench
{

/** sweep-scale (smallCat=false) and sweep-small-cat (smallCat=true). */
int runSweep(const Context &ctx, bool smallCat);

/** serve-mixed: an lkmm-serve daemon under open-loop Poisson load. */
int runServe(const Context &ctx);

/** fuzz-isolated: an lkmm-fuzz campaign with fork-per-side isolation. */
int runFuzzCampaign(const Context &ctx);

} // namespace perfbench

#endif // LKMM_PERFBENCH_WORKLOADS_HH
