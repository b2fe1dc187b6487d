/**
 * @file
 * Serial-vs-parallel equivalence tests for the batch evaluation
 * layer: every ParallelEvaluator result must be bit-identical to the
 * serial Evaluator/CachingEvaluator loops it replaces, and cache
 * hit-rates must agree once warmed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sched/parallel_evaluator.hh"
#include "util/rng.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace {

std::vector<AcceleratorConfig>
randomBatch(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AcceleratorConfig> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        batch.push_back(designSpace().randomConfig(rng));
    return batch;
}

void
expectBitIdentical(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.valid, b.valid);
    // EXPECT_EQ on double is exact comparison: 0 ULP tolerance.
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.edp, b.edp);
}

TEST(ParallelEvaluator, BatchBitIdenticalToSerialEvaluator)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(48, 7);

    Evaluator plain;
    std::vector<EvalResult> expected;
    expected.reserve(batch.size());
    for (const AcceleratorConfig &config : batch)
        expected.push_back(
            plain.evaluateWorkload(config, alexnet.layers));

    CachingEvaluator cached;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(cached, pool);
    const std::vector<EvalResult> got =
        parallel.evaluateBatch(batch, alexnet.layers);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], expected[i]);
}

TEST(ParallelEvaluator, LayerBatchBitIdenticalToSerial)
{
    const LayerShape layer = resNet50Layers()[5];
    const std::vector<AcceleratorConfig> batch = randomBatch(64, 13);

    Evaluator plain;
    CachingEvaluator cached;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(cached, pool);
    const std::vector<EvalResult> got =
        parallel.evaluateLayerBatch(batch, layer);

    for (std::size_t i = 0; i < batch.size(); ++i)
        expectBitIdentical(got[i],
                           plain.evaluateLayer(batch[i], layer));
}

TEST(ParallelEvaluator, WorkloadRollUpBitIdenticalToSerial)
{
    const Workload resnet = workloadByName("resnet50");
    const std::vector<AcceleratorConfig> batch = randomBatch(16, 29);

    Evaluator plain;
    CachingEvaluator cached;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(cached, pool);

    for (const AcceleratorConfig &config : batch) {
        const EvalResult serial =
            plain.evaluateWorkload(config, resnet.layers);
        expectBitIdentical(
            parallel.evaluateWorkload(config, resnet.layers),
            serial);
        expectBitIdentical(evaluateWorkloadParallel(
                               plain, config, resnet.layers, pool),
                           serial);
    }
}

TEST(ParallelEvaluator, InvalidConfigZeroesTotalsLikeSerial)
{
    AcceleratorConfig bad;
    bad.numPes = 16;
    bad.numMacs = 1024;
    bad.accumBufBytes = 48 * 1024;
    bad.weightBufBytes = 1024 * 1024;
    bad.inputBufBytes = 64 * 1024;
    bad.globalBufBytes = 2; // unmappable
    const auto layers = alexNetLayers();

    Evaluator plain;
    CachingEvaluator cached;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(cached, pool);

    const EvalResult serial = plain.evaluateWorkload(bad, layers);
    ASSERT_FALSE(serial.valid);
    expectBitIdentical(parallel.evaluateWorkload(bad, layers),
                       serial);
    expectBitIdentical(
        evaluateWorkloadParallel(plain, bad, layers, pool), serial);
    expectBitIdentical(
        parallel.evaluateBatch({bad}, layers).front(), serial);
}

TEST(ParallelEvaluator, WarmedCacheHitRateMatchesSerial)
{
    // Hit-rate parity: after one full pass over a batch, a repeat
    // pass must be 100% hits both serially and in parallel.
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(24, 31);
    const std::size_t lookups =
        batch.size() * alexnet.layers.size();

    CachingEvaluator serialCache;
    for (const AcceleratorConfig &config : batch)
        serialCache.evaluateWorkload(config, alexnet.layers);
    const std::uint64_t serialWarm = serialCache.hits();
    for (const AcceleratorConfig &config : batch)
        serialCache.evaluateWorkload(config, alexnet.layers);
    const std::uint64_t serialRepeatHits =
        serialCache.hits() - serialWarm;

    CachingEvaluator parallelCache;
    ThreadPool pool(4);
    const ParallelEvaluator parallel(parallelCache, pool);
    parallel.evaluateBatch(batch, alexnet.layers);
    const std::uint64_t parallelWarm = parallelCache.hits();
    parallel.evaluateBatch(batch, alexnet.layers);
    const std::uint64_t parallelRepeatHits =
        parallelCache.hits() - parallelWarm;

    // The repeat pass sees a fully warmed cache in both modes. (The
    // warm pass itself may differ: concurrent first-touches of one
    // key each count a miss.) Unmappable configs early-exit their
    // workload sum identically in both modes, so the counts match
    // exactly without assuming every random config is valid.
    EXPECT_EQ(serialRepeatHits, parallelRepeatHits);
    EXPECT_GT(parallelRepeatHits, 0u);
    EXPECT_LE(parallelRepeatHits, lookups);
}

TEST(ParallelEvaluator, ChunkSizeForNeverEmptyNeverOvercounts)
{
    // The clamp floor of 8 must never produce more chunks than
    // items or a zero-size chunk, across the small/degenerate edges
    // (items < 8, items == 0, threads == 0/1) and normal sizes.
    const std::size_t itemCases[] = {0, 1, 2, 3, 7, 8,
                                     9, 64, 1000, 100000};
    const std::size_t threadCases[] = {0, 1, 2, 8, 64};
    for (const std::size_t items : itemCases) {
        for (const std::size_t threads : threadCases) {
            const std::size_t chunk = chunkSizeFor(items, threads);
            EXPECT_GE(chunk, 1u)
                << "items=" << items << " threads=" << threads;
            EXPECT_LE(chunk, 256u)
                << "items=" << items << " threads=" << threads;
            // Never more chunks than items, never an empty chunk: a
            // chunk larger than the batch would claim ghosts.
            EXPECT_LE(chunk, std::max<std::size_t>(items, 1))
                << "items=" << items << " threads=" << threads;
            if (items > 0) {
                const std::size_t chunks =
                    (items + chunk - 1) / chunk;
                EXPECT_LE(chunks, items)
                    << "items=" << items
                    << " threads=" << threads;
            }
        }
        // threads == 0 must behave exactly like threads == 1.
        EXPECT_EQ(chunkSizeFor(items, 0), chunkSizeFor(items, 1))
            << "items=" << items;
    }
    // Tiny batches get one exact-fit chunk, not a padded floor-8.
    for (std::size_t items = 1; items < 8; ++items)
        EXPECT_EQ(chunkSizeFor(items, 4), items);
}

TEST(ParallelEvaluator, NullItemTokensMatchPlainBatch)
{
    // The four-argument evaluateConfigBatch spelling (both trailing
    // arguments nullptr) is evaluateBatch under another name.
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> batch = randomBatch(12, 41);

    CachingEvaluator plainCache;
    ThreadPool pool(2);
    const ParallelEvaluator plainEval(plainCache, pool);
    const std::vector<EvalResult> expected =
        plainEval.evaluateBatch(batch, alexnet.layers);

    CachingEvaluator otherCache;
    const ParallelEvaluator otherEval(otherCache, pool);
    const std::vector<EvalResult> got = otherEval.evaluateConfigBatch(
        batch, alexnet.layers, nullptr, nullptr);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitIdentical(got[i], expected[i]);
    EXPECT_EQ(otherCache.hits(), plainCache.hits());
    EXPECT_EQ(otherCache.misses(), plainCache.misses());
}

} // namespace
} // namespace vaesa
