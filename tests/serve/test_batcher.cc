/**
 * @file
 * Unit tests for the ScoreBatcher coalescing queue, exercised
 * directly (no sockets): pass-through at window 0, real coalescing
 * of concurrent callers into one batch, deadline-expired items that
 * leave batch-mates untouched, the serve_batch injected-fault
 * contract (leader dies, mates re-batch, cache stays clean), drain
 * cancellation, and the idle fast path that skips the window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <future>
#include <latch>
#include <string>
#include <vector>

#include "sched/caching_evaluator.hh"
#include "sched/evaluator.hh"
#include "serve/batcher.hh"
#include "util/deadline.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace serve {
namespace {

std::vector<AcceleratorConfig>
distinctConfigs(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AcceleratorConfig> configs;
    configs.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        configs.push_back(designSpace().randomConfig(rng));
    return configs;
}

/** Serial reference scores through an independent plain Evaluator. */
std::vector<EvalResult>
referenceScores(const std::vector<AcceleratorConfig> &configs,
                const std::vector<LayerShape> &layers)
{
    Evaluator evaluator;
    std::vector<EvalResult> results;
    results.reserve(configs.size());
    for (const AcceleratorConfig &config : configs)
        results.push_back(evaluator.evaluateWorkload(config, layers));
    return results;
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

/** A loadHint that always reports a busy server (window honored). */
std::size_t
busyHint()
{
    return 8;
}

class ScoreBatcherTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        FaultInjector::instance().reset();
    }
};

TEST_F(ScoreBatcherTest, WindowZeroPassesRequestsThroughUnchanged)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> configs =
        distinctConfigs(4, 101);
    const std::vector<EvalResult> expected =
        referenceScores(configs, alexnet.layers);

    const CachingEvaluator cache;
    ThreadPool evalPool(2);
    BatcherOptions options;
    options.batchWindowUs = 0;
    ScoreBatcher batcher(cache, evalPool, options, nullptr,
                         &busyHint);

    for (std::size_t i = 0; i < configs.size(); ++i)
        expectBitIdentical(batcher.score("alexnet", alexnet.layers,
                                         configs[i], nullptr),
                           expected[i]);
    evalPool.shutdown();
}

TEST_F(ScoreBatcherTest, ConcurrentCallersCoalesceIntoOneBatch)
{
    constexpr std::size_t kClients = 4;
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> configs =
        distinctConfigs(kClients, 202);
    const std::vector<EvalResult> expected =
        referenceScores(configs, alexnet.layers);

    const CachingEvaluator cache;
    ThreadPool evalPool(2);
    BatcherOptions options;
    options.batchWindowUs = 50000; // 50 ms: plenty to coalesce
    options.maxBatch = kClients;   // full house closes it early
    ScoreBatcher batcher(cache, evalPool, options, nullptr,
                         &busyHint);

    metrics::Counter &batches = metrics::counter("serve.batches");
    const std::uint64_t batchesBefore = batches.value();

    // The clients meet at an arrival barrier and call score() together,
    // so the coalescing window sees one wavefront however late the pool
    // started any client thread.
    ThreadPool clients(kClients);
    std::latch arrived(kClients);
    std::vector<EvalResult> got(kClients);
    std::vector<std::future<void>> replies;
    for (std::size_t i = 0; i < kClients; ++i)
        replies.push_back(clients.submit([&, i] {
            arrived.arrive_and_wait();
            got[i] = batcher.score("alexnet", alexnet.layers,
                                   configs[i], nullptr);
        }));
    for (auto &reply : replies)
        reply.get(); // rethrows any unexpected score() failure
    for (std::size_t i = 0; i < kClients; ++i)
        expectBitIdentical(got[i], expected[i]);
    clients.shutdown();
    evalPool.shutdown();

    // All four callers were answered by one (at most two, if a
    // client was descheduled between the barrier and score())
    // coalesced dispatch, not four per-request ones.
    const std::uint64_t dispatched =
        batches.value() - batchesBefore;
    EXPECT_GE(dispatched, 1u);
    EXPECT_LE(dispatched, 2u);
}

TEST_F(ScoreBatcherTest, ExpiredCallerDoesNotHarmBatchMates)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> configs =
        distinctConfigs(2, 303);
    const std::vector<EvalResult> expected =
        referenceScores(configs, alexnet.layers);

    const CachingEvaluator cache;
    ThreadPool evalPool(2);
    BatcherOptions options;
    options.batchWindowUs = 20000;
    options.maxBatch = 2;
    ScoreBatcher batcher(cache, evalPool, options, nullptr,
                         &busyHint);

    CancelToken expired;
    expired.setDeadlineAfterMs(0); // already past its deadline

    ThreadPool clients(2);
    EvalResult healthyResult;
    std::future<void> doomed = clients.submit([&] {
        EXPECT_THROW(batcher.score("alexnet", alexnet.layers,
                                   configs[0], &expired),
                     DeadlineExceeded);
    });
    std::future<void> healthy = clients.submit([&] {
        healthyResult = batcher.score("alexnet", alexnet.layers,
                                      configs[1], nullptr);
    });
    doomed.wait();
    healthy.get();
    expectBitIdentical(healthyResult, expected[1]);
    clients.shutdown();
    evalPool.shutdown();
}

TEST_F(ScoreBatcherTest, ServeBatchFaultKillsOnlyTheLeader)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> configs =
        distinctConfigs(2, 404);
    const std::vector<EvalResult> expected =
        referenceScores(configs, alexnet.layers);

    const CachingEvaluator cache;
    ThreadPool evalPool(2);
    BatcherOptions options;
    options.batchWindowUs = 20000;
    options.maxBatch = 2;
    ScoreBatcher batcher(cache, evalPool, options, nullptr,
                         &busyHint);

    // The first dispatch (whichever caller leads it) dies at the
    // serve_batch site; the re-queued mate's retry runs clean.
    FaultInjector::instance().arm("serve_batch", 1);

    std::atomic<int> faults{0};
    std::vector<EvalResult> got(2);
    std::vector<bool> answered(2, false);
    ThreadPool clients(2);
    std::vector<std::future<void>> replies;
    for (std::size_t i = 0; i < 2; ++i)
        replies.push_back(clients.submit([&, i] {
            try {
                got[i] = batcher.score("alexnet", alexnet.layers,
                                       configs[i], nullptr);
                answered[i] = true;
            } catch (const InjectedFault &) {
                ++faults;
            }
        }));
    for (auto &reply : replies)
        reply.wait();
    clients.shutdown();

    // Exactly one caller (the faulted leader) died; every other
    // caller got its normal, correct answer.
    EXPECT_EQ(faults.load(), 1);
    for (std::size_t i = 0; i < 2; ++i)
        if (answered[i])
            expectBitIdentical(got[i], expected[i]);
    EXPECT_EQ(faults.load() +
                  static_cast<int>(std::count(answered.begin(),
                                              answered.end(), true)),
              2);

    // The aborted dispatch left the cache unpoisoned: re-scoring
    // both configs reproduces the serial reference bit-for-bit.
    for (std::size_t i = 0; i < 2; ++i)
        expectBitIdentical(batcher.score("alexnet", alexnet.layers,
                                         configs[i], nullptr),
                           expected[i]);
    evalPool.shutdown();
}

TEST_F(ScoreBatcherTest, CancelledDrainTokenAnswersDeadline)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> configs =
        distinctConfigs(1, 505);

    const CachingEvaluator cache;
    ThreadPool evalPool(2);
    CancelToken drain;
    drain.cancel();
    BatcherOptions options;
    options.batchWindowUs = 20000;
    ScoreBatcher batcher(cache, evalPool, options, &drain,
                         &busyHint);

    EXPECT_THROW(batcher.score("alexnet", alexnet.layers,
                               configs[0], nullptr),
                 DeadlineExceeded);
    evalPool.shutdown();
}

TEST_F(ScoreBatcherTest, IdleServerSkipsTheCoalesceWindow)
{
    const Workload alexnet = workloadByName("alexnet");
    const std::vector<AcceleratorConfig> configs =
        distinctConfigs(1, 606);
    const std::vector<EvalResult> expected =
        referenceScores(configs, alexnet.layers);

    const CachingEvaluator cache;
    ThreadPool evalPool(2);
    BatcherOptions options;
    options.batchWindowUs = 2000000; // 2 s: unmistakable if waited
    ScoreBatcher batcher(cache, evalPool, options, nullptr,
                         [] { return std::size_t{1}; });

    const std::uint64_t t0 = metrics::monotonicNowNs();
    const EvalResult result = batcher.score(
        "alexnet", alexnet.layers, configs[0], nullptr);
    const std::uint64_t elapsedNs = metrics::monotonicNowNs() - t0;
    expectBitIdentical(result, expected[0]);
    // An idle server must answer at unbatched latency, far below
    // the configured window.
    EXPECT_LT(elapsedNs, 500ull * 1000000ull);
    evalPool.shutdown();
}

} // namespace
} // namespace serve
} // namespace vaesa
