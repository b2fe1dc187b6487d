/**
 * @file
 * Load/latency gate of the vaesa_serve daemon: an in-process server
 * on an ephemeral loopback port, hammered by closed-loop clients
 * with a mixed query stream (cache-warming ScoreConfig, pings,
 * deadline-carrying scores, small bounded searches), plus one
 * overload burst proving admission control answers with structured
 * REJECTED_OVERLOAD instead of hanging or crashing.
 *
 * Gates sustained QPS and exact p99 latency, prints the table, and
 * writes bench_out/serve_load.{csv,json} and the checked-in
 * BENCH_serve_load.json, which records the host's hardware threads.
 * Exits nonzero when a gate fails.
 *
 * Env knobs:
 *   VAESA_SERVE_QUERIES          queries (default 100000)
 *   VAESA_SERVE_CLIENTS          closed-loop clients (default 4)
 *   VAESA_SERVE_QPS              sustained-QPS gate (default 2000)
 *   VAESA_SERVE_P99_MS           p99 latency gate in ms (default 50)
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/env.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace vaesa;
using serve::MsgType;
using serve::Request;
using serve::Response;
using serve::Status;

/** One synchronous request/response round trip. */
Expected<Response>
roundTrip(const serve::Socket &sock, const Request &request)
{
    if (auto err = serve::sendFrame(
            sock, serve::frameMessage(
                      serve::serializeRequest(request))))
        return *err;
    Expected<std::string> frame = serve::recvFrame(sock, 30000);
    if (!frame)
        return frame.error();
    Expected<std::string> payload =
        serve::unwrapFrame(frame.value());
    if (!payload)
        return payload.error();
    return serve::parseResponse(payload.value());
}

/** Per-client tallies. */
struct ClientStats
{
    std::vector<double> latencyMs;
    std::uint64_t ok = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
};

double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    const std::size_t k = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

} // namespace

int
main()
{
    const std::size_t totalQueries = static_cast<std::size_t>(
        envInt("VAESA_SERVE_QUERIES", 100000));
    const std::size_t clients = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(envInt("VAESA_SERVE_CLIENTS", 4)));
    const double qpsTarget = envDouble("VAESA_SERVE_QPS", 2000.0);
    const double p99TargetMs = envDouble("VAESA_SERVE_P99_MS", 50.0);
    // The host's hardware threads (VAESA_THREADS overrides, as for
    // every pool), so a reader can tell which host class ran this.
    const std::size_t hwThreads = ThreadPool::defaultThreadCount();
    serve::ServeOptions options;
    options.tcpPort = 0; // ephemeral
    options.serviceThreads = clients + 2;
    options.maxConnections = clients + 2;
    options.maxInflightSearch = 2;
    serve::Server server(options);
    if (auto err = server.start()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     err->describe().c_str());
        return 1;
    }

    ThreadPool serverThread(1);
    auto serveDone =
        serverThread.submit([&server]() { (void)server.serve(); });

    // ----- Mixed-load phase ------------------------------------------
    // Closed-loop clients, each on its own connection. The config
    // stream draws from a modest distinct set so the shared cache
    // warms exactly the way a production search service's does.
    ThreadPool clientPool(clients);
    std::vector<ClientStats> stats(clients);
    const std::size_t perClient = totalQueries / clients;
    const std::uint16_t port = server.port();

    const std::uint64_t benchT0 = metrics::monotonicNowNs();
    clientPool.parallelFor(clients, [&](std::size_t c) {
        Rng rng(0x5E24E5ull + c);
        std::vector<AcceleratorConfig> configs;
        for (int i = 0; i < 64; ++i)
            configs.push_back(designSpace().randomConfig(rng));
        Expected<serve::Socket> conn = serve::connectTcp(port);
        if (!conn) {
            stats[c].errors += perClient;
            return;
        }
        ClientStats &my = stats[c];
        my.latencyMs.reserve(perClient);
        for (std::size_t i = 0; i < perClient; ++i) {
            Request request;
            request.id = c * 1000000 + i;
            const std::uint64_t kind = rng.index(100);
            if (kind < 90) {
                request.type = MsgType::ScoreConfig;
                request.workload = "alexnet";
                request.config = configs[rng.index(configs.size())];
                if (kind < 4)
                    request.deadlineMs = 1; // deadline mix
            } else if (kind < 95) {
                request.type = MsgType::Ping;
            } else if (kind < 99) {
                request.type = MsgType::Stats;
            } else {
                request.type = MsgType::SearchK;
                request.workload = "alexnet";
                request.samples = 24;
                request.method = serve::SearchMethod::Random;
                request.seed = rng.next();
                request.deadlineMs = 100;
            }
            const std::uint64_t t0 = metrics::monotonicNowNs();
            Expected<Response> resp = roundTrip(conn.value(),
                                                request);
            const std::uint64_t t1 = metrics::monotonicNowNs();
            if (!resp) {
                ++my.errors;
                continue;
            }
            my.latencyMs.push_back(
                static_cast<double>(t1 - t0) / 1e6);
            switch (resp.value().status) {
            case Status::Ok:
                ++my.ok;
                break;
            case Status::DeadlineExceeded:
                ++my.deadlineExceeded;
                break;
            case Status::RejectedOverload:
                ++my.rejected;
                break;
            default:
                ++my.errors;
                break;
            }
        }
    });
    const double wallSec =
        static_cast<double>(metrics::monotonicNowNs() - benchT0) /
        1e9;

    // ----- Overload burst --------------------------------------------
    // Saturate every connection slot with held-open connections, then
    // knock: each extra connection must get a structured rejection.
    std::uint64_t burstRejections = 0;
    {
        std::vector<serve::Socket> holders;
        for (std::size_t i = 0; i < options.maxConnections + 4;
             ++i) {
            Expected<serve::Socket> conn = serve::connectTcp(port);
            if (!conn)
                continue;
            Expected<std::string> frame =
                serve::recvFrame(conn.value(), 200);
            if (frame) {
                Expected<std::string> payload =
                    serve::unwrapFrame(frame.value());
                if (payload) {
                    Expected<Response> resp =
                        serve::parseResponse(payload.value());
                    if (resp && resp.value().status ==
                                    Status::RejectedOverload) {
                        ++burstRejections;
                        continue;
                    }
                }
            }
            holders.push_back(std::move(conn.value()));
        }
    }

    server.requestShutdown();
    serveDone.wait();
    serverThread.shutdown();
    clientPool.shutdown();

    // ----- Tallies + gates -------------------------------------------
    std::vector<double> all;
    std::uint64_t ok = 0, deadline = 0, rejected = 0, errors = 0;
    for (const ClientStats &s : stats) {
        all.insert(all.end(), s.latencyMs.begin(),
                   s.latencyMs.end());
        ok += s.ok;
        deadline += s.deadlineExceeded;
        rejected += s.rejected;
        errors += s.errors;
    }
    const std::uint64_t completed = ok + deadline + rejected;
    const double qps = static_cast<double>(completed) / wallSec;
    const double p50 = percentile(all, 0.50);
    const double p99 = percentile(all, 0.99);

    const bool meetsTarget = qps >= qpsTarget &&
                             p99 <= p99TargetMs && errors == 0 &&
                             burstRejections >= 1;

    bench::rule();
    std::printf("serve_load: %zu queries, %zu clients, %.1f s "
                "(%zu hw threads)\n",
                totalQueries, clients, wallSec, hwThreads);
    std::printf("  qps %.0f (target %.0f)  p50 %.3f ms  p99 %.3f ms "
                "(target %.1f)\n",
                qps, qpsTarget, p50, p99, p99TargetMs);
    std::printf("  ok %llu  deadline_exceeded %llu  rejected %llu  "
                "errors %llu  burst_rejections %llu\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(deadline),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(burstRejections));
    CsvWriter csv(bench::csvPath("serve_load.csv"));
    csv.header({"queries", "clients", "wall_s", "qps", "p50_ms",
                "p99_ms", "ok", "deadline_exceeded", "rejected",
                "errors", "burst_rejections", "hardware_threads"});
    csv.row({std::to_string(completed), std::to_string(clients),
             CsvWriter::cell(wallSec), CsvWriter::cell(qps),
             CsvWriter::cell(p50), CsvWriter::cell(p99),
             std::to_string(ok), std::to_string(deadline),
             std::to_string(rejected), std::to_string(errors),
             std::to_string(burstRejections),
             std::to_string(hwThreads)});

    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"serve_load\",\n"
         << "  \"hardware_threads\": " << hwThreads << ",\n"
         << "  \"queries\": " << totalQueries << ",\n"
         << "  \"clients\": " << clients << ",\n"
         << "  \"wall_s\": " << wallSec << ",\n"
         << "  \"qps\": " << qps << ",\n"
         << "  \"qps_target\": " << qpsTarget << ",\n"
         << "  \"p50_ms\": " << p50 << ",\n"
         << "  \"p99_ms\": " << p99 << ",\n"
         << "  \"p99_target_ms\": " << p99TargetMs << ",\n"
         << "  \"ok\": " << ok << ",\n"
         << "  \"deadline_exceeded\": " << deadline << ",\n"
         << "  \"rejected_overload\": " << rejected << ",\n"
         << "  \"errors\": " << errors << ",\n"
         << "  \"burst_rejections\": " << burstRejections << ",\n"
         << "  \"meets_target\": "
         << (meetsTarget ? "true" : "false") << "\n}\n";
    std::ofstream(bench::csvPath("serve_load.json")) << json.str();
    std::ofstream(bench::repoRootPath("BENCH_serve_load.json"))
        << json.str();

    std::printf("%s (baseline written to BENCH_serve_load.json)\n",
                meetsTarget ? "meets qps/p99 targets"
                            : "MISSES qps/p99 targets");
    return meetsTarget ? 0 : 1;
}
