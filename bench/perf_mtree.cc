/**
 * @file
 * google-benchmark microbenchmarks of the modeling stack: tree
 * training across sample counts and engines, prediction and
 * classification throughput, OLS fitting, and the hypothesis tests.
 *
 * Besides the usual google-benchmark CLI, `perf_mtree --smoke` runs a
 * fixed-scale comparison of the three tree-building engines (Serial /
 * Presorted / Parallel) under two configs — the growth phase alone
 * (constant leaves, no prune/smooth: the code the presorted path
 * replaced) and the full default pipeline — checks that all engines
 * serialize byte-identically in both, and writes BENCH_mtree.json:
 *
 *   perf_mtree --smoke [--rows=N] [--reps=R] [--out=FILE]
 *                      [--baseline=FILE]
 *
 * With --baseline, the run fails (exit 1) when the measured
 * growth-phase presorted-over-serial speedup drops below 75% of the
 * baseline's — a machine-independent regression gate (both numbers
 * come from the same host), wired into ctest under the perf-smoke
 * label.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench/run_meta.hh"
#include "data/dataset.hh"
#include "mtree/baselines.hh"
#include "mtree/model_tree.hh"
#include "stats/tests.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace wct;

/** Synthetic piecewise dataset shaped like PMU samples (20 cols). */
Dataset
syntheticSamples(std::size_t n, std::uint64_t seed)
{
    std::vector<std::string> names = {"CPI"};
    for (int i = 1; i < 20; ++i)
        names.push_back("m" + std::to_string(i));
    Dataset d(names);
    Rng rng(seed);
    std::vector<double> row(20);
    for (std::size_t r = 0; r < n; ++r) {
        for (int c = 1; c < 20; ++c)
            row[c] = rng.uniform(0.0, 0.1);
        const double base = row[1] > 0.05 ? 1.2 : 0.4;
        row[0] = base + 8.0 * row[2] + 120.0 * row[3] +
            rng.normal(0.0, 0.05);
        d.addRow(row);
    }
    return d;
}

ModelTreeConfig
trainConfig(TreeBuilderKind builder)
{
    ModelTreeConfig config;
    config.builder = builder;
    config.minLeafFraction = 0.02;
    return config;
}

void
trainBenchmark(benchmark::State &state, TreeBuilderKind builder)
{
    const Dataset data =
        syntheticSamples(static_cast<std::size_t>(state.range(0)), 1);
    const ModelTreeConfig config = trainConfig(builder);
    for (auto _ : state) {
        ModelTree tree = ModelTree::train(data, "CPI", config);
        benchmark::DoNotOptimize(tree.numLeaves());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_ModelTreeTrain(benchmark::State &state)
{
    trainBenchmark(state, TreeBuilderKind::Auto);
}
BENCHMARK(BM_ModelTreeTrain)->Arg(1000)->Arg(4000)->Arg(16000);

void
BM_ModelTreeTrainSerial(benchmark::State &state)
{
    trainBenchmark(state, TreeBuilderKind::Serial);
}
BENCHMARK(BM_ModelTreeTrainSerial)->Arg(1000)->Arg(4000)->Arg(16000);

void
BM_ModelTreeTrainPresorted(benchmark::State &state)
{
    trainBenchmark(state, TreeBuilderKind::Presorted);
}
BENCHMARK(BM_ModelTreeTrainPresorted)->Arg(1000)->Arg(4000)->Arg(16000);

void
BM_ModelTreeTrainParallel(benchmark::State &state)
{
    trainBenchmark(state, TreeBuilderKind::Parallel);
}
BENCHMARK(BM_ModelTreeTrainParallel)->Arg(1000)->Arg(4000)->Arg(16000);

void
BM_ModelTreePredict(benchmark::State &state)
{
    const Dataset data = syntheticSamples(8000, 2);
    ModelTreeConfig config;
    config.minLeafFraction = 0.02;
    const ModelTree tree = ModelTree::train(data, "CPI", config);
    std::size_t r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.predict(data.row(r)));
        r = (r + 1) % data.numRows();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelTreePredict);

void
BM_ModelTreeClassify(benchmark::State &state)
{
    const Dataset data = syntheticSamples(8000, 3);
    ModelTreeConfig config;
    config.minLeafFraction = 0.02;
    const ModelTree tree = ModelTree::train(data, "CPI", config);
    std::size_t r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.classify(data.row(r)));
        r = (r + 1) % data.numRows();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelTreeClassify);

void
BM_GlobalOlsTrain(benchmark::State &state)
{
    const Dataset data =
        syntheticSamples(static_cast<std::size_t>(state.range(0)), 4);
    for (auto _ : state) {
        auto model = GlobalLinearRegression::train(data, "CPI");
        benchmark::DoNotOptimize(model.model().intercept);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GlobalOlsTrain)->Arg(4000)->Arg(16000);

void
BM_PooledTTest(benchmark::State &state)
{
    Rng rng(5);
    std::vector<double> xs, ys;
    for (int i = 0; i < state.range(0); ++i) {
        xs.push_back(rng.normal(1.0, 0.5));
        ys.push_back(rng.normal(1.1, 0.5));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(pooledTTest(xs, ys).pValue);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PooledTTest)->Arg(10000)->Arg(100000);

void
BM_MannWhitney(benchmark::State &state)
{
    Rng rng(6);
    std::vector<double> xs, ys;
    for (int i = 0; i < state.range(0); ++i) {
        xs.push_back(rng.normal(1.0, 0.5));
        ys.push_back(rng.normal(1.1, 0.5));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(mannWhitneyUTest(xs, ys).pValue);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MannWhitney)->Arg(10000)->Arg(100000);

// ---- Smoke mode (the perf-smoke ctest gate). ----

struct SmokeResult
{
    double ms = 0.0;       ///< best wall time over the reps
    std::string serialized; ///< save() output (identity check)
};

/**
 * The growth-phase config: constant leaves with pruning and
 * smoothing off isolates exactly what the presorted engine rebuilt —
 * node moments, split search, and partitioning — from the
 * engine-independent leaf-model linear algebra (greedy subset
 * selection costs the same per node in every engine and would only
 * dilute the ratio the gate watches).
 */
ModelTreeConfig
growthConfig(TreeBuilderKind builder)
{
    ModelTreeConfig config = trainConfig(builder);
    config.constantLeaves = true;
    config.smooth = false;
    config.prune = false;
    return config;
}

SmokeResult
timeEngine(const Dataset &data, const ModelTreeConfig &config,
           int reps)
{
    SmokeResult result;
    result.ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const ModelTree tree = ModelTree::train(data, "CPI", config);
        const auto stop = std::chrono::steady_clock::now();
        result.ms = std::min(
            result.ms,
            std::chrono::duration<double, std::milli>(stop - start)
                .count());
        if (result.serialized.empty()) {
            std::ostringstream out;
            tree.save(out);
            result.serialized = out.str();
        }
    }
    return result;
}

struct EngineComparison
{
    double serial_ms = 0.0;
    double presorted_ms = 0.0;
    double parallel_ms = 0.0;
    bool identical = false;
};

template <typename MakeConfig>
EngineComparison
compareEngines(const Dataset &data, MakeConfig make_config, int reps)
{
    const SmokeResult serial =
        timeEngine(data, make_config(TreeBuilderKind::Serial), reps);
    const SmokeResult presorted = timeEngine(
        data, make_config(TreeBuilderKind::Presorted), reps);
    const SmokeResult parallel = timeEngine(
        data, make_config(TreeBuilderKind::Parallel), reps);
    EngineComparison cmp;
    cmp.serial_ms = serial.ms;
    cmp.presorted_ms = presorted.ms;
    cmp.parallel_ms = parallel.ms;
    cmp.identical = serial.serialized == presorted.serialized &&
        serial.serialized == parallel.serialized;
    return cmp;
}

int
runSmoke(int argc, char **argv)
{
    std::size_t rows = 8000;
    int reps = 3;
    std::string out_path = "BENCH_mtree.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--smoke")
            continue;
        if (arg.rfind("--rows=", 0) == 0)
            rows = static_cast<std::size_t>(
                std::strtoul(arg.data() + 7, nullptr, 10));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(std::strtol(arg.data() + 7,
                                                nullptr, 10)));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_mtree: unknown smoke option " << arg
                      << "\n";
            return 1;
        }
    }

    const Dataset data = syntheticSamples(rows, 1);
    const std::size_t threads = ThreadPool::configuredThreads();

    // Two measurements per engine: the growth phase (what the
    // presorted path replaced — the headline gated number) and the
    // full default pipeline (prune + smooth + simplified leaf
    // models), whose engine-independent linear algebra dilutes the
    // end-to-end ratio but is what users actually run.
    const EngineComparison growth =
        compareEngines(data, growthConfig, reps);
    const EngineComparison full =
        compareEngines(data, trainConfig, reps);

    const bool identical = growth.identical && full.identical;
    const double growth_speedup_presorted =
        growth.serial_ms / growth.presorted_ms;
    const double growth_speedup_parallel =
        growth.serial_ms / growth.parallel_ms;
    const double full_speedup_presorted =
        full.serial_ms / full.presorted_ms;
    const double full_speedup_parallel =
        full.serial_ms / full.parallel_ms;

    std::ostringstream json;
    json << "{\n"
         << "  \"benchmark\": \"perf_mtree --smoke\",\n"
         << bench::runMetadataJson("  ") << ",\n"
         << "  \"rows\": " << rows << ",\n"
         << "  \"cols\": " << data.numColumns() << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"growth_serial_ms\": " << growth.serial_ms << ",\n"
         << "  \"growth_presorted_ms\": " << growth.presorted_ms
         << ",\n"
         << "  \"growth_parallel_ms\": " << growth.parallel_ms
         << ",\n"
         << "  \"growth_speedup_presorted\": "
         << growth_speedup_presorted << ",\n"
         << "  \"growth_speedup_parallel\": "
         << growth_speedup_parallel << ",\n"
         << "  \"full_serial_ms\": " << full.serial_ms << ",\n"
         << "  \"full_presorted_ms\": " << full.presorted_ms << ",\n"
         << "  \"full_parallel_ms\": " << full.parallel_ms << ",\n"
         << "  \"full_speedup_presorted\": "
         << full_speedup_presorted << ",\n"
         << "  \"full_speedup_parallel\": " << full_speedup_parallel
         << ",\n"
         << "  \"trees_identical\": "
         << (identical ? "true" : "false") << "\n"
         << "}\n";
    std::ofstream out(out_path);
    out << json.str();
    out.close();
    std::cout << json.str();

    if (!identical) {
        std::cerr << "perf_mtree: FAIL: the three engines serialized "
                     "different trees\n";
        return 1;
    }
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::cerr << "perf_mtree: cannot read baseline "
                      << baseline_path << "\n";
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const double base =
            bench::jsonNumber(buf.str(), "growth_speedup_presorted");
        if (std::isnan(base) || base <= 0.0) {
            std::cerr << "perf_mtree: baseline has no usable "
                         "growth_speedup_presorted\n";
            return 1;
        }
        // Gate on the speedup *ratio*, not absolute times: both the
        // numerator and denominator were measured on this host, so
        // the check transfers across machines and CI load.
        const double floor = 0.75 * base;
        if (growth_speedup_presorted < floor) {
            std::cerr << "perf_mtree: FAIL: growth-phase presorted "
                      << "speedup " << growth_speedup_presorted
                      << "x fell below 75% of the baseline " << base
                      << "x (floor " << floor << "x)\n";
            return 1;
        }
        std::cout << "perf_mtree: speedup gate OK ("
                  << growth_speedup_presorted << "x >= " << floor
                  << "x floor)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--smoke")
            return runSmoke(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
