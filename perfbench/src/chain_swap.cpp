/**
 * @file
 * chain-swap: pre-extracted 16-feature rows on the routed Server, two
 * lanes, a front -> deep chain rule, and hot swaps of the front model.
 *
 * Two open-loop producers: bulk lane 1 at kBulkRate rows/s and probe
 * lane 0 at kProbeRate rows/s. The probe thread also flips "front"
 * between versions 1 and 2 every kSwapPeriodNs, so registry writes run
 * beside the batcher's per-batch pins. Every verdict's RouteTrace is
 * replayed afterwards through the exact registry version it pinned.
 */
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "models.hpp"
#include "serve_common.hpp"

#include "runtime/server.hpp"

namespace perfbench {

using namespace homunculus;

namespace {

constexpr std::size_t kPoolRows = 16384;
constexpr std::size_t kFeatures = 16;
constexpr double kBulkRate = 200'000.0;
constexpr double kProbeRate = 5'000.0;
constexpr std::int64_t kSwapPeriodNs = 100'000'000;
constexpr std::int64_t kSwapWindowNs = 10'000'000;
/** Warm-up rows, sent at kBulkRate (half a second). */
constexpr std::size_t kWarmupRows = 100'000;
constexpr std::size_t kLatencyWindows = 10;
/** Front label that escalates to "deep", and the share of front
 *  verdicts it is built to take. */
constexpr int kEscalateLabel = 3;
constexpr double kEscalationShare = 0.10;

/** The hops of one request, written by the trace callback. */
struct HopRecord
{
    std::uint8_t count = 0;
    std::uint8_t deepSecond = 0;  ///< hop 1 ran on "deep".
    std::int8_t label[2] = {-1, -1};
    std::uint32_t version[2] = {0, 0};
};

struct Setup
{
    math::Matrix rows;
    std::shared_ptr<telemetry::MetricRegistry> metrics;
    std::shared_ptr<runtime::ModelRegistry> registry;
    std::unique_ptr<VerdictSlots> slots;
    std::vector<HopRecord> hops;  ///< by ticket - 1.
    std::vector<std::int32_t> rowOf;  ///< pool row by ticket - 1.
    std::unique_ptr<runtime::Server> server;
    ir::ModelIr frontV2;
};

std::vector<double>
rowVector(const math::Matrix &rows, std::size_t r)
{
    return {rows.rowPtr(r), rows.rowPtr(r) + rows.cols()};
}

/** Submit pool row @p r on @p lane, remembering which row the ticket
 *  carries. Returns the ticket, or 0 when not admitted. */
std::uint64_t
submitRow(Setup &setup, std::size_t r, std::size_t lane)
{
    auto result = setup.server->submit(rowVector(setup.rows, r), lane);
    if (!result.admitted())
        return 0;
    if (result.ticket - 1 < setup.rowOf.size())
        setup.rowOf[result.ticket - 1] = static_cast<std::int32_t>(r);
    return result.ticket;
}

std::unique_ptr<Setup>
buildSetup(std::uint64_t seed, std::size_t capacity)
{
    auto setup = std::make_unique<Setup>();
    setup->rows = mixtureRows(kPoolRows, kFeatures, 8, seed);
    std::vector<double> front_shares = {0.3, 0.3, 0.3, kEscalationShare};
    ir::ModelIr front_v1 =
        makeMlp("front", {kFeatures, 16, 4}, seed ^ 0xF1ull, setup->rows,
                front_shares);
    setup->frontV2 = makeMlp("front", {kFeatures, 16, 4}, seed ^ 0xF2ull,
                             setup->rows, front_shares);
    ir::ModelIr deep =
        makeMlp("deep", {kFeatures, 32, 32, 4}, seed ^ 0xDEull, setup->rows);
    for (const ir::ModelIr *model : {&front_v1, &setup->frontV2, &deep}) {
        std::vector<int> labels = scalarLabels(*model, setup->rows);
        requireNonDegenerate(*model, labels);
        if (model == &deep)
            continue;
        double share = classShares(labels, model->numClasses)[kEscalateLabel];
        if (share < kEscalationShare / 2 || share > kEscalationShare * 2)
            throw std::runtime_error(
                "chain-swap: front escalates " + std::to_string(share) +
                " of rows, built for " + std::to_string(kEscalationShare));
    }

    runtime::EngineOptions engine;
    engine.jobs = 1;
    setup->metrics = std::make_shared<telemetry::MetricRegistry>();
    setup->registry = std::make_shared<runtime::ModelRegistry>(
        engine, setup->metrics.get());
    setup->registry->load("front", front_v1);
    setup->registry->load("front", setup->frontV2);
    setup->registry->load("deep", deep);

    runtime::RouteConfig route;
    route.defaultModel = "front";
    route.chain.push_back({"front", kEscalateLabel, "deep"});
    runtime::ServerConfig config;
    config.queue.maxBatch = 64;
    config.queue.maxDelayUs = 500;
    config.queue.maxDepth = 4096;
    runtime::QueuePolicy bulk;
    bulk.maxBatch = 1024;
    bulk.maxDelayUs = 2000;
    bulk.maxDepth = 16384;
    config.extraLanes.push_back(bulk);
    config.backpressure = runtime::BackpressureMode::kShed;
    config.metrics = setup->metrics;

    setup->slots = std::make_unique<VerdictSlots>(capacity);
    setup->hops.resize(capacity);
    setup->rowOf.assign(capacity, -1);
    VerdictSlots *slots = setup->slots.get();
    HopRecord *hops = setup->hops.data();
    setup->server = std::make_unique<runtime::Server>(
        setup->registry, route, config,
        [slots](const runtime::Request &request, int verdict) {
            slots->record(request.id, verdict);
        },
        [hops, capacity](const runtime::Request &request,
                         const runtime::RouteTrace &trace) {
            std::size_t slot = static_cast<std::size_t>(request.id - 1);
            if (slot >= capacity)
                return;
            HopRecord &record = hops[slot];
            record.count = static_cast<std::uint8_t>(trace.hops.size());
            for (std::size_t h = 0; h < trace.hops.size() && h < 2; ++h) {
                record.label[h] = static_cast<std::int8_t>(trace.hops[h].label);
                record.version[h] =
                    static_cast<std::uint32_t>(trace.hops[h].version);
            }
            record.deepSecond =
                trace.hops.size() > 1 && trace.hops[1].model == "deep";
        });

    // Warm-up at the offered rate (see frames-mlp), one row in 16 on the
    // probe lane, drained before the clock starts.
    std::uint64_t admitted = 0;
    std::int64_t period_ns = static_cast<std::int64_t>(1e9 / kBulkRate);
    std::int64_t start = nowNs();
    bool host_stall = false;
    for (std::size_t i = 0; i < kWarmupRows; ++i) {
        waitUntil(start + static_cast<std::int64_t>(i) * period_ns,
                  host_stall);
        admitted += submitRow(*setup, i % kPoolRows, i % 16 == 0 ? 0 : 1) != 0;
    }
    while (slots->delivered.load(std::memory_order_acquire) < admitted)
        std::this_thread::yield();
    return setup;
}

/** One open-loop producer's schedule and what it observed. */
struct Producer
{
    std::size_t lane = 0;
    std::int64_t periodNs = 0;
    std::size_t count = 0;
    std::size_t rowStride = 1;
    std::vector<std::uint64_t> ticket;  ///< 0 = not admitted.
    std::vector<float> lagUs;
    std::vector<char> stalledWindow;  ///< host stall seen, per window.
    std::vector<std::int64_t> submitNs;    ///< traced only.
    std::vector<std::int64_t> returnedNs;  ///< traced only.

    std::int64_t
    due(std::int64_t start, std::size_t i) const
    {
        return start + static_cast<std::int64_t>(i) * periodNs;
    }
};

void
produce(Setup &setup, Producer &producer, std::int64_t start, bool traced,
        std::vector<std::int64_t> *swap_at, std::vector<double> *swap_us)
{
    std::uint64_t next_version = 2;
    std::int64_t next_swap = start + kSwapPeriodNs;
    for (std::size_t i = 0; i < producer.count; ++i) {
        std::int64_t due = producer.due(start, i);
        bool host_stall = false;
        std::int64_t began = waitUntil(due, host_stall);
        if (host_stall)
            producer.stalledWindow[i * kLatencyWindows / producer.count] = 1;
        if (swap_at != nullptr && began >= next_swap) {
            setup.registry->swap("front", next_version);
            std::int64_t swapped = nowNs();
            swap_at->push_back(swapped);
            swap_us->push_back(static_cast<double>(swapped - began) * 1e-3);
            next_version = 3 - next_version;
            next_swap += kSwapPeriodNs;
            began = swapped;
        }
        producer.lagUs[i] = static_cast<float>(began - due) * 1e-3f;
        producer.ticket[i] = submitRow(
            setup, (i * producer.rowStride + producer.lane) % kPoolRows,
            producer.lane);
        if (traced) {
            std::int64_t done = nowNs();
            producer.submitNs[i] = done - began;
            producer.returnedNs[i] = done;
        }
    }
}

}  // namespace

Outcome
runChainSwap(const RunSpec &spec)
{
    Outcome out;
    Producer bulk, probe;
    bulk.lane = 1;
    bulk.periodNs = static_cast<std::int64_t>(1e9 / kBulkRate);
    bulk.count = static_cast<std::size_t>(kBulkRate * spec.seconds);
    bulk.rowStride = 1;
    probe.lane = 0;
    probe.periodNs = static_cast<std::int64_t>(1e9 / kProbeRate);
    probe.count = static_cast<std::size_t>(kProbeRate * spec.seconds);
    probe.rowStride = 7919;
    for (Producer *p : {&bulk, &probe}) {
        p->ticket.assign(p->count, 0);
        p->lagUs.assign(p->count, 0.0f);
        p->stalledWindow.assign(kLatencyWindows, 0);
        if (spec.traced) {
            p->submitNs.assign(p->count, 0);
            p->returnedNs.assign(p->count, 0);
        }
    }
    std::size_t capacity = kWarmupRows + bulk.count + probe.count + 1;

    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup =
        timedSetups(spec, setup_s, [&] { return buildSetup(spec.seed, capacity); });
    auto before = setup->metrics->snapshot();

    std::vector<std::int64_t> swap_at;
    std::vector<double> swap_us;
    std::int64_t start = nowNs() + 1'000'000;
    std::thread probe_thread([&] {
        produce(*setup, probe, start, spec.traced, &swap_at, &swap_us);
    });
    produce(*setup, bulk, start, spec.traced, nullptr, nullptr);
    probe_thread.join();
    setup->server->stop();
    auto after = setup->metrics->snapshot();
    const VerdictSlots &slots = *setup->slots;

    // ---- output checks: replay every route through its pinned version --
    std::array<std::vector<int>, 3> front_labels;  // by version 1, 2.
    std::vector<int> deep_labels;
    auto scalar_labels = [&](const std::string &name, std::uint64_t v) {
        auto epoch = setup->registry->version(name, v);
        if (!epoch)
            throw std::runtime_error("chain-swap: " + name + " v" +
                                     std::to_string(v) + " not loaded");
        ir::ExecutablePlan plan = epoch->engine.plan();
        plan.forceKernelTarget(kernels::KernelTarget::kScalar);
        return plan.run(setup->rows);
    };
    front_labels[1] = scalar_labels("front", 1);
    front_labels[2] = scalar_labels("front", 2);
    deep_labels = scalar_labels("deep", 1);

    std::uint64_t verdicts = 0, bad_routes = 0, escalated = 0;
    std::vector<int> expected_final, served;
    for (std::size_t slot = 0; slot + 1 < capacity; ++slot) {
        if (slots.doneNs[slot] == 0)
            continue;
        ++verdicts;
        const HopRecord &hop = setup->hops[slot];
        std::int32_t r = setup->rowOf[slot];
        bool ok = r >= 0 && hop.count >= 1 && hop.count <= 2 &&
                  (hop.version[0] == 1 || hop.version[0] == 2);
        int final_label = -1;
        if (ok) {
            int front = front_labels[hop.version[0]][static_cast<std::size_t>(r)];
            ok = hop.label[0] == front;
            final_label = front;
            if (front == kEscalateLabel) {
                ++escalated;
                int deep = deep_labels[static_cast<std::size_t>(r)];
                ok = ok && hop.count == 2 && hop.deepSecond &&
                     hop.version[1] == 1 && hop.label[1] == deep;
                final_label = deep;
            } else {
                ok = ok && hop.count == 1;
            }
            ok = ok && slots.verdict[slot] == final_label;
        }
        bad_routes += !ok;
        expected_final.push_back(final_label);
        served.push_back(slots.verdict[slot]);
    }
    out.check(bad_routes == 0, "chain-swap: " + std::to_string(bad_routes) +
                                   " route traces do not replay through "
                                   "their pinned versions");
    out.check(verdicts == after.counterValue("server.rows_served"),
              "chain-swap: verdict callbacks != server.rows_served");
    out.check(partitionHolds(after),
              "chain-swap: served + failed + early-dropped != accepted");
    out.check(!swap_at.empty() || spec.seconds * 1e9 < 2 * kSwapPeriodNs,
              "chain-swap: no hot swap happened");

    // ---- end-to-end metrics --------------------------------------------
    std::int64_t span = static_cast<std::int64_t>(spec.seconds * 1e9);
    std::vector<std::vector<double>> all_w(kLatencyWindows),
        probe_w(kLatencyWindows);
    std::vector<double> near_swap, steady, admit_us, submit_us, lag_us;
    std::uint64_t timed_verdicts = 0;
    std::size_t next_swap_index = 0;
    for (Producer *p : {&bulk, &probe}) {
        next_swap_index = 0;
        for (std::size_t i = 0; i < p->count; ++i) {
            std::int64_t due = p->due(start, i);
            std::uint64_t ticket = p->ticket[i];
            std::int64_t done = ticket != 0 ? slots.doneNs[ticket - 1] : 0;
            double latency =
                done == 0 ? kInf : static_cast<double>(done - due) * 1e-3;
            timed_verdicts += done != 0;
            std::size_t w = std::min<std::size_t>(
                kLatencyWindows - 1,
                static_cast<std::size_t>((due - start) * kLatencyWindows / span));
            all_w[w].push_back(latency);
            if (p == &probe)
                probe_w[w].push_back(latency);
            while (next_swap_index < swap_at.size() &&
                   swap_at[next_swap_index] + kSwapWindowNs < due)
                ++next_swap_index;
            bool in_window = next_swap_index < swap_at.size() &&
                             swap_at[next_swap_index] <= due;
            (in_window ? near_swap : steady).push_back(latency);
            lag_us.push_back(p->lagUs[i]);
            if (spec.traced) {
                submit_us.push_back(static_cast<double>(p->submitNs[i]) * 1e-3);
                admit_us.push_back(done == 0 ? kInf
                                             : static_cast<double>(
                                                   done - p->returnedNs[i]) *
                                                   1e-3);
            }
        }
    }
    out.attempted = bulk.count + probe.count;
    out.failed = out.attempted - timed_verdicts;
    out.e2e["setup_s"] = {median(setup_s), "s"};
    // Host stalls come from the bulk pacer only: the probe thread spins
    // between submits 40 times longer, so it also sees this process's
    // own threads displacing it, which is not the host's doing.
    std::vector<bool> stalled(kLatencyWindows, false);
    for (std::size_t w = 0; w < kLatencyWindows; ++w)
        stalled[w] = bulk.stalledWindow[w] != 0;
    out.e2e["p50_us"] = {windowedPercentile(all_w, 50.0, stalled), "us"};
    out.e2e["p99_us"] = {windowedPercentile(all_w, 99.0, stalled), "us"};
    out.e2e["probe_p99_us"] = {windowedPercentile(probe_w, 99.0, stalled),
                               "us"};
    out.e2e["served_frac"] = {static_cast<double>(timed_verdicts) /
                                  static_cast<double>(out.attempted),
                              "ratio"};
    std::int64_t last_done = start;
    for (std::size_t slot = 0; slot + 1 < capacity; ++slot)
        last_done = std::max(last_done, slots.doneNs[slot]);
    out.e2e["rows_s"] = {static_cast<double>(timed_verdicts) /
                             (static_cast<double>(last_done - start) * 1e-9),
                         "rows/s"};
    out.e2e["best_f1"] = {taskF1(expected_final, served, 4), "F1"};
    out.notes.push_back(
        "open loop: " + std::to_string(bulk.count) + " bulk (lane 1) + " +
        std::to_string(probe.count) + " probe (lane 0) requests, " +
        std::to_string(swap_at.size()) + " swaps, " +
        std::to_string(kLatencyWindows) +
        " windows (median of per-window percentiles), " +
        std::to_string(excludedWindows(stalled)) +
        " left out for host stalls");
    double lag_p99 = percentile(lag_us, 99.0);
    if (lag_p99 > 1000.0)
        out.notes.push_back("WARNING: generator ran late (lag p99 " +
                            std::to_string(lag_p99) +
                            " us); latency figures are suspect");

    out.hostStalled = mostlyStalled(stalled);
    if (!spec.traced)
        return out;

    Metrics &layers = out.layers;
    layers["server.submit_us.p50"] = {percentile(submit_us, 50), "us"};
    layers["server.submit_us.p99"] = {percentile(submit_us, 99), "us"};
    layers["gen.lag_us.p99"] = {lag_p99, "us"};
    layers["gen.stalled_windows"] = {
        static_cast<double>(std::count(stalled.begin(), stalled.end(), true)),
        "count"};
    layers["queue.admit_to_verdict_us.p50"] = {percentile(admit_us, 50), "us"};
    layers["queue.admit_to_verdict_us.p99"] = {percentile(admit_us, 99), "us"};
    addLaneMetrics(layers, before, after, 0);
    addLaneMetrics(layers, before, after, 1);
    addBatcherMetrics(layers, before, after, {"front", "deep"});
    double front_rows = layers["router.hop_rows.front"].value;
    layers["router.escalation_frac"] = {
        front_rows > 0 ? layers["router.hop_rows.deep"].value / front_rows
                       : 0.0,
        "ratio"};
    layers["registry.swap_us.p50"] = {percentile(swap_us, 50), "us"};
    layers["registry.swap_us.max"] = {percentile(swap_us, 100), "us"};
    layers["registry.swaps"] = {sumDelta(before, after, "registry.swaps"),
                                "count"};
    layers["registry.pins"] = {sumDelta(before, after, "registry.pins"),
                               "count"};
    layers["registry.swap_window_p99_us"] = {percentile(near_swap, 99), "us"};
    layers["registry.steady_p99_us"] = {percentile(steady, 99), "us"};
    out.notes.push_back("escalated verdicts: " + std::to_string(escalated) +
                        " of " + std::to_string(verdicts));
    return out;
}

}  // namespace perfbench
