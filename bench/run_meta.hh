/**
 * @file
 * Run metadata stamped into every BENCH_*.json: which compiler built
 * the binary, which git revision it came from, and the WCT_THREADS
 * it ran under. A checked-in baseline or a CI artifact is
 * only interpretable when the numbers carry their provenance — two
 * BENCH files that disagree should first be compared on this block.
 */

#ifndef WCT_BENCH_RUN_META_HH
#define WCT_BENCH_RUN_META_HH

#include <string>

namespace wct::bench
{

/**
 * One JSON object member, `"run_meta": {...}`, ready to splice into a
 * BENCH_*.json (no trailing comma or newline). Each inner line is
 * prefixed with `indent`. Contents: toolkit version, git revision the
 * build was configured at (WCT_GIT_REV, "unknown" outside a
 * checkout), compiler id from __VERSION__, the thread count
 * WCT_THREADS resolved to (ThreadPool::configuredThreads(), the value
 * that sizes the global pool; a bench that resizes the pool itself
 * records that size in its own fields), and host CPU count.
 */
std::string runMetadataJson(const std::string &indent);

} // namespace wct::bench

#endif // WCT_BENCH_RUN_META_HH
