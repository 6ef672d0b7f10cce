/**
 * @file
 * Tests of the staged pipeline (src/pipeline): stage-key sensitivity
 * to every input, codec round trips, cache hit/miss lifecycle with
 * corrupt-artifact recovery, cold/warm plan byte-identity, and gc
 * liveness from chained plan keys.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/suite_model.hh"
#include "mtree/serialize.hh"
#include "pipeline/plans.hh"
#include "pipeline/stages.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

namespace fs = std::filesystem;
using namespace pipeline;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("wct_stage_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "mini";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = "mini." + std::to_string(i);
        b.instructionWeight = 0.5 + 0.5 * i;
        PhaseProfile p;
        p.loadFrac = 0.2 + 0.04 * i;
        p.dataFootprint = 1u << (18 + i);
        b.phases.push_back(p);
        suite.benchmarks.push_back(b);
    }
    return suite;
}

CollectionConfig
miniConfig()
{
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = 40;
    config.warmupInstructions = 20'000;
    return config;
}

SuiteModelConfig
miniModelConfig()
{
    SuiteModelConfig config;
    config.trainFraction = 0.5;
    config.tree.minLeafInstances = 10;
    return config;
}

TEST(StageKeyTest, CollectKeyCoversEveryCollectionInput)
{
    const SuiteProfile suite = miniSuite();
    const CollectionConfig base = miniConfig();
    const std::uint64_t key = collectStageKey(suite, base);

    // Same inputs -> same key (the key is a pure function).
    EXPECT_EQ(collectStageKey(suite, base), key);

    CollectionConfig changed = base;
    changed.seed ^= 1;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.shards = 4;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.baseIntervals += 1;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.multiplexed = false;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.machine.l2MissCycles += 1.0;
    EXPECT_NE(collectStageKey(suite, changed), key);

    SuiteProfile renamed = suite;
    renamed.benchmarks[0].name = "mini.renamed";
    EXPECT_NE(collectStageKey(renamed, base), key);

    SuiteProfile tweaked = suite;
    tweaked.benchmarks[1].phases[0].loadFrac += 0.01;
    EXPECT_NE(collectStageKey(tweaked, base), key);
}

TEST(StageKeyTest, DownstreamKeysChainUpstreamKeys)
{
    const SuiteModelConfig model = miniModelConfig();
    const std::uint64_t train_a = trainStageKey(111, model);
    const std::uint64_t train_b = trainStageKey(222, model);
    EXPECT_NE(train_a, train_b); // collect key flows into train

    SuiteModelConfig other_model = model;
    other_model.trainFraction = 0.25;
    EXPECT_NE(trainStageKey(111, other_model), train_a);
    other_model = model;
    other_model.seed ^= 1;
    EXPECT_NE(trainStageKey(111, other_model), train_a);
    other_model = model;
    other_model.tree.minLeafInstances += 1;
    EXPECT_NE(trainStageKey(111, other_model), train_a);

    EXPECT_NE(profileStageKey(train_a), profileStageKey(train_b));
    EXPECT_NE(similarityStageKey(profileStageKey(train_a), {}),
              similarityStageKey(profileStageKey(train_b), {}));
    EXPECT_NE(similarityStageKey(profileStageKey(train_a), {}),
              similarityStageKey(profileStageKey(train_a), {"a"}));

    const std::uint64_t transfer =
        transferStageKey(train_a, train_b, "test", {});
    EXPECT_NE(transferStageKey(train_b, train_a, "test", {}),
              transfer); // direction matters
    EXPECT_NE(transferStageKey(train_a, train_b, "train", {}),
              transfer);
    TransferabilityConfig config;
    config.bootstrapReplicates = 500;
    EXPECT_NE(transferStageKey(train_a, train_b, "test", config),
              transfer);
}

TEST(StageKeyTest, StageKindKeepsKeysApart)
{
    // A train artifact and its profile artifact must never collide in
    // the store even if their numeric keys happened to be close: the
    // kind is part of the key derivation as well as the file name.
    const std::uint64_t collect =
        collectStageKey(miniSuite(), miniConfig());
    EXPECT_NE(trainStageKey(collect, miniModelConfig()), collect);
    EXPECT_NE(profileStageKey(collect), collect);
}

TEST(StageCodecTest, SuiteDataRoundTrip)
{
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const std::string payload = encodeSuiteData(data);
    const auto decoded = decodeSuiteData(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encodeSuiteData(*decoded), payload);
    EXPECT_FALSE(decodeSuiteData("not a suite").has_value());
    EXPECT_FALSE(
        decodeSuiteData(payload.substr(0, payload.size() / 2))
            .has_value());
}

TEST(StageCodecTest, SuiteModelRoundTrip)
{
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const SuiteModel model =
        buildSuiteModel(data, miniModelConfig());
    const std::string payload = encodeSuiteModel(model);
    const auto decoded = decodeSuiteModel(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encodeSuiteModel(*decoded), payload);
    EXPECT_EQ(decoded->suiteName, model.suiteName);
    EXPECT_EQ(decoded->meanCpi, model.meanCpi);
    EXPECT_EQ(decoded->train.numRows(), model.train.numRows());
    std::ostringstream a, b;
    writeModelTree(model.tree, a);
    writeModelTree(decoded->tree, b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_FALSE(decodeSuiteModel("garbage").has_value());
}

TEST(StageCodecTest, ProfileSimilarityAndTransferRoundTrip)
{
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const SuiteModel model =
        buildSuiteModel(data, miniModelConfig());
    const ProfileTable table(data, model.tree);

    const std::string table_payload = encodeProfileTable(table);
    const auto table_decoded = decodeProfileTable(table_payload);
    ASSERT_TRUE(table_decoded.has_value());
    EXPECT_EQ(encodeProfileTable(*table_decoded), table_payload);
    EXPECT_EQ(table_decoded->render(), table.render());

    const SimilarityMatrix sim(table);
    const std::string sim_payload = encodeSimilarity(sim);
    const auto sim_decoded = decodeSimilarity(sim_payload);
    ASSERT_TRUE(sim_decoded.has_value());
    EXPECT_EQ(encodeSimilarity(*sim_decoded), sim_payload);
    EXPECT_EQ(sim_decoded->render(), sim.render());

    TransferabilityConfig config;
    config.bootstrapReplicates = 50;
    config.modelName = "mini";
    config.targetName = "mini.test";
    const auto report = assessTransferability(
        model.tree, model.train, model.test, config);
    const std::string report_payload = encodeTransferReport(report);
    const auto report_decoded =
        decodeTransferReport(report_payload);
    ASSERT_TRUE(report_decoded.has_value());
    EXPECT_EQ(encodeTransferReport(*report_decoded), report_payload);
    EXPECT_EQ(report_decoded->render(), report.render());
    EXPECT_FALSE(decodeTransferReport("junk").has_value());
}

TEST(StageRunTest, WarmStagesHitAndMatchColdBytes)
{
    const TempDir dir("warm");
    const SuiteProfile suite = miniSuite();
    const CollectionConfig config = miniConfig();
    const SuiteModelConfig model_config = miniModelConfig();
    const std::uint64_t collect_key = collectStageKey(suite, config);

    std::string cold_bytes;
    {
        pipeline::Pipeline pipe{ArtifactStore(dir.path.string())};
        const SuiteData data = collectStage(pipe, suite, config);
        const SuiteModel model =
            trainStage(pipe, data, collect_key, model_config);
        EXPECT_FALSE(pipe.allCached());
        EXPECT_EQ(pipe.cachedCount(), 0u);
        cold_bytes = encodeSuiteData(data) + encodeSuiteModel(model);

        // The train stage also publishes the tree text for serving.
        std::ostringstream text;
        writeModelTree(model.tree, text);
        const ArtifactId mtree_id{
            "mtree", modelTreeContentKey(text.str())};
        ASSERT_TRUE(pipe.store().contains(mtree_id));
        const auto stored = pipe.store().load(mtree_id);
        ASSERT_TRUE(stored.has_value());
        EXPECT_EQ(*stored, text.str());
    }
    {
        pipeline::Pipeline pipe{ArtifactStore(dir.path.string())};
        const SuiteData data = collectStage(pipe, suite, config);
        const SuiteModel model =
            trainStage(pipe, data, collect_key, model_config);
        // One run per collect shard (3 benchmarks x 1 shard) + train.
        EXPECT_TRUE(pipe.allCached());
        EXPECT_EQ(pipe.cachedCount(), 4u);
        EXPECT_EQ(encodeSuiteData(data) + encodeSuiteModel(model),
                  cold_bytes);
        const std::string report = pipe.renderReport();
        EXPECT_NE(report.find("cache hits: 4/4"), std::string::npos)
            << report;
    }
}

TEST(StageRunTest, CorruptArtifactRecomputesAndRepairs)
{
    const TempDir dir("repair");
    const SuiteProfile suite = miniSuite();
    const CollectionConfig config = miniConfig();
    const ArtifactStore store(dir.path.string());
    const ArtifactId id = collectShardArtifacts(suite, config)[0];

    std::string first_payload;
    {
        pipeline::Pipeline pipe{store};
        collectStage(pipe, suite, config);
        first_payload = *store.load(id);
    }

    // Flip a payload bit in the cached artifact.
    std::string bytes;
    {
        std::ifstream in(store.path(id), std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    bytes[bytes.size() / 2] ^= 0x04;
    {
        std::ofstream out(store.path(id),
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_FALSE(store.load(id).has_value());

    // The stage re-collects exactly that shard (a miss; the other
    // shards stay hits), repairs the file, and still returns the
    // right data. Shard runs are recorded in deterministic task
    // order, so the corrupted shard is the first run.
    pipeline::Pipeline pipe{store};
    collectStage(pipe, suite, config);
    EXPECT_FALSE(pipe.runs().front().cached);
    EXPECT_EQ(pipe.cachedCount(), pipe.runs().size() - 1);
    const auto repaired = store.load(id);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(*repaired, first_payload);
}

/** Puts the global pool back to 0 workers on scope exit, so a failed
 * ASSERT cannot leave later tests on a resized pool. */
struct PoolSizeReset
{
    ~PoolSizeReset() { ThreadPool::resetGlobalForTest(0); }
};

TEST(StageRunTest, ParallelStorePassMatchesAtAnyPoolSize)
{
    // A mixed store: half the shards pre-stored, one of those with a
    // flipped byte (the file fails its checksum) and one holding a
    // payload that is not a shard dataset. The store pass runs over
    // the pool; at 0 and 4 workers the suite bytes, the StageRun
    // labels and cached flags (in task order) must be the same, the
    // two bad shards recompute, and their files are repaired.
    const TempDir dir("mixed");
    const SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    config.shards = 3;
    const std::vector<ArtifactId> ids =
        collectShardArtifacts(suite, config);
    ASSERT_EQ(ids.size(), 9u);

    const ArtifactStore reference((dir.path / "reference").string());
    std::string reference_bytes;
    {
        pipeline::Pipeline pipe{reference};
        reference_bytes = encodeSuiteData(collectStage(pipe, suite, config));
    }
    const std::size_t corrupt = 2;
    const std::size_t undecodable = 4;

    std::vector<std::string> labels[2];
    std::vector<bool> cached[2];
    const std::size_t workers[2] = {0, 4};
    const PoolSizeReset pool_reset;
    for (int w = 0; w < 2; ++w) {
        ThreadPool::resetGlobalForTest(workers[w]);
        const ArtifactStore store(
            (dir.path / ("pool" + std::to_string(workers[w])))
                .string());
        for (std::size_t t = 0; t < ids.size(); t += 2) {
            ASSERT_TRUE(store.store(ids[t], *reference.load(ids[t])));
        }
        std::ifstream in(store.path(ids[corrupt]), std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        in.close();
        std::string bytes = buf.str();
        bytes[bytes.size() / 2] ^= 0x04;
        std::ofstream(store.path(ids[corrupt]),
                      std::ios::binary | std::ios::trunc)
            << bytes;
        ASSERT_TRUE(store.store(ids[undecodable], "not a dataset"));

        pipeline::Pipeline pipe{store};
        const bool quiet = setLogQuiet(true);
        const SuiteData data = collectStage(pipe, suite, config);
        setLogQuiet(quiet);
        EXPECT_EQ(encodeSuiteData(data), reference_bytes)
            << "workers=" << workers[w];
        ASSERT_EQ(pipe.runs().size(), ids.size());
        for (std::size_t t = 0; t < ids.size(); ++t) {
            const StageRun &run = pipe.runs()[t];
            EXPECT_EQ(run.id.key, ids[t].key) << t;
            labels[w].push_back(run.label);
            cached[w].push_back(run.cached);
            const bool stored =
                t % 2 == 0 && t != corrupt && t != undecodable;
            EXPECT_EQ(run.cached, stored)
                << "workers=" << workers[w] << " task " << t;
        }
        for (const std::size_t t : {corrupt, undecodable}) {
            const auto repaired = store.load(ids[t]);
            ASSERT_TRUE(repaired.has_value()) << t;
            EXPECT_EQ(*repaired, *reference.load(ids[t])) << t;
        }
    }
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(cached[0], cached[1]);
    EXPECT_EQ(labels[0].front(), "collect-shard:mini.0/0");
    EXPECT_EQ(labels[0].back(), "collect-shard:mini.2/2");
}

TEST(StageRunTest, DisabledStoreStillComputes)
{
    pipeline::Pipeline pipe; // no store
    const SuiteData direct = collectSuite(miniSuite(), miniConfig());
    const SuiteData staged =
        collectStage(pipe, miniSuite(), miniConfig());
    EXPECT_EQ(encodeSuiteData(staged), encodeSuiteData(direct));
    EXPECT_FALSE(pipe.runs().empty());
    EXPECT_FALSE(pipe.allCached());
}

/** A scaled-down protocol keeping plan tests inside ctest budgets. */
pipeline::PlanProtocol
tinyProtocol()
{
    pipeline::PlanProtocol protocol;
    protocol.collection.intervalInstructions = 2048;
    protocol.collection.baseIntervals = 12;
    protocol.collection.warmupInstructions = 20'000;
    return protocol;
}

TEST(PlanTest, NamesAreStable)
{
    for (const char *name :
         {"cpu2006", "omp2001", "transfer", "full"})
        EXPECT_TRUE(pipeline::isPlanName(name)) << name;
    EXPECT_FALSE(pipeline::isPlanName("spec95"));
    EXPECT_EQ(pipeline::planNames().size(), 4u);
}

TEST(PlanTest, ColdAndWarmRunsAreByteIdentical)
{
    const TempDir dir("plan");
    const pipeline::PlanProtocol protocol = tinyProtocol();

    std::ostringstream cold;
    pipeline::Pipeline cold_pipe{ArtifactStore(dir.path.string())};
    pipeline::runPlan(cold_pipe, "omp2001", protocol, cold);
    EXPECT_FALSE(cold_pipe.allCached());

    std::ostringstream warm;
    pipeline::Pipeline warm_pipe{ArtifactStore(dir.path.string())};
    pipeline::runPlan(warm_pipe, "omp2001", protocol, warm);
    EXPECT_TRUE(warm_pipe.allCached());
    EXPECT_EQ(warm_pipe.cachedCount(), warm_pipe.runs().size());
    EXPECT_EQ(warm.str(), cold.str());

    // Uncached execution agrees byte-for-byte with both.
    std::ostringstream fresh;
    pipeline::Pipeline fresh_pipe;
    pipeline::runPlan(fresh_pipe, "omp2001", protocol, fresh);
    EXPECT_EQ(fresh.str(), cold.str());
}

TEST(PlanTest, GcFromPlanArtifactsKeepsThePlanWarm)
{
    const TempDir dir("gc");
    const pipeline::PlanProtocol protocol = tinyProtocol();
    const ArtifactStore store(dir.path.string());

    std::ostringstream cold;
    pipeline::Pipeline pipe{store};
    pipeline::runPlan(pipe, "omp2001", protocol, cold);

    // Garbage: an artifact no plan references.
    ASSERT_TRUE(store.store({"train", 0xdead}, "stale"));

    const auto live =
        pipeline::planArtifacts("omp2001", protocol, store);
    EXPECT_GE(live.size(), pipe.runs().size());
    const auto removed = store.gc(live);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0].kind, "train");
    EXPECT_EQ(removed[0].key, 0xdeadu);

    // Everything the plan needs survived: the re-run is all hits and
    // byte-identical.
    std::ostringstream warm;
    pipeline::Pipeline warm_pipe{store};
    pipeline::runPlan(warm_pipe, "omp2001", protocol, warm);
    EXPECT_TRUE(warm_pipe.allCached());
    EXPECT_EQ(warm.str(), cold.str());
}

} // namespace
} // namespace wct
