/**
 * @file
 * frames-mlp: wire frames through extract -> scale -> admission ->
 * batcher -> one TC-shaped MLP, on the routed Server over a one-entry
 * registry with the default route.
 *
 * The timed run is an open loop at kOpenRate frames/s from one
 * producer; each request's latency runs from its due time to its
 * verdict callback. The traced run adds a closed loop: the same
 * producer submits back-to-back under kBlockWithTimeout admission on
 * kClosedServers freshly started servers in turn, and
 * server.saturation_rows_s is the mean of their rates. It is a
 * per-layer figure, not rows_s: a server's saturation rate depends on
 * where its threads land and on the host's phase (on a 4-vCPU host
 * servers settle near 340k or 500k frames/s, and ten-run medians moved
 * by a third between sets), which no end-to-end bound could hold.
 */
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "models.hpp"
#include "serve_common.hpp"

#include "ml/preprocess.hpp"
#include "net/feature_extract.hpp"
#include "runtime/server.hpp"

namespace perfbench {

using namespace homunculus;

namespace {

constexpr std::size_t kPoolFrames = 8192;
constexpr double kOpenRate = 150'000.0;
constexpr double kClosedRateCap = 800'000.0;  ///< slot sizing only.
constexpr std::size_t kClosedServers = 8;
/** Warm-up frames, sent at kOpenRate (half a second). */
constexpr std::size_t kWarmupFrames = 75'000;
constexpr std::size_t kLatencyWindows = 10;
constexpr double kThroughputWindowS = 0.1;

/** The workload's inputs: the frame pool and the model serving it. */
struct Inputs
{
    std::vector<std::vector<std::uint8_t>> frames;
    ir::ModelIr model;
    std::vector<int> reference;  ///< scalar-plan label per frame.
};

/** One started, warmed-up server and the slots its callback fills. */
struct Serving
{
    std::shared_ptr<telemetry::MetricRegistry> metrics;
    std::unique_ptr<VerdictSlots> slots;
    std::unique_ptr<runtime::Server> server;
    std::size_t submitted = 0;  ///< submissions so far (tickets - 1).

    runtime::SubmitResult
    submitNext(const Inputs &inputs)
    {
        return server->submitFrame(inputs.frames[submitted++ % kPoolFrames]);
    }
};

struct Setup
{
    Inputs inputs;
    std::unique_ptr<Serving> serving;
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs inputs;
    net::IotPacketConfig packets;
    packets.numPackets = kPoolFrames;
    packets.seed = seed;
    for (const auto &labeled : net::generateIotPackets(packets))
        inputs.frames.push_back(net::serialize(labeled.packet));

    net::FeatureExtractor extractor;
    math::Matrix raw(inputs.frames.size(), net::kNumTcFeatures);
    for (std::size_t i = 0; i < inputs.frames.size(); ++i) {
        auto row = extractor.extractFromWire(inputs.frames[i]);
        if (!row)
            throw std::runtime_error("frames-mlp: generated frame does not "
                                     "parse");
        std::copy(row->begin(), row->end(), raw.rowPtr(i));
    }
    ml::StandardScaler scaler;
    math::Matrix scaled = scaler.fitTransform(raw);

    inputs.model = makeMlp("tc", {net::kNumTcFeatures, 32, 32, 5},
                           seed ^ 0x7Cull, scaled);
    inputs.model.scalerMeans = scaler.means();
    inputs.model.scalerStds = scaler.stddevs();
    inputs.reference = scalarLabels(inputs.model, scaled);
    requireNonDegenerate(inputs.model, inputs.reference);
    return inputs;
}

std::unique_ptr<Serving>
startServing(const Inputs &inputs, std::size_t slot_capacity)
{
    auto serving = std::make_unique<Serving>();
    runtime::EngineOptions engine;
    engine.jobs = 2;
    serving->metrics = std::make_shared<telemetry::MetricRegistry>();
    auto registry = std::make_shared<runtime::ModelRegistry>(
        engine, serving->metrics.get());
    registry->load("tc", inputs.model);

    runtime::RouteConfig route;
    route.defaultModel = "tc";
    runtime::ServerConfig config;
    config.queue.maxBatch = 512;
    config.queue.maxDelayUs = 1000;
    config.queue.maxDepth = 8192;
    config.backpressure = runtime::BackpressureMode::kBlockWithTimeout;
    config.metrics = serving->metrics;
    serving->slots = std::make_unique<VerdictSlots>(slot_capacity);
    VerdictSlots *slots = serving->slots.get();
    serving->server = std::make_unique<runtime::Server>(
        registry, route, config,
        [slots](const runtime::Request &request, int verdict) {
            slots->record(request.id, verdict);
        });

    // Warm-up at the offered rate, drained before the clock starts. It
    // warms the path the timed phase runs, and being paced it keeps
    // setup_s from swinging with the host's speed as much as pure
    // compute would.
    std::uint64_t admitted = 0;
    std::int64_t period_ns = static_cast<std::int64_t>(1e9 / kOpenRate);
    std::int64_t start = nowNs();
    bool host_stall = false;
    for (std::size_t i = 0; i < kWarmupFrames; ++i) {
        waitUntil(start + static_cast<std::int64_t>(i) * period_ns,
                  host_stall);
        admitted += serving->submitNext(inputs).admitted();
    }
    while (slots->delivered.load(std::memory_order_acquire) < admitted)
        std::this_thread::yield();
    return serving;
}

/**
 * Stop @p serving and check it: every verdict equals the scalar plan's
 * label for its frame, the callbacks match server.rows_served, and
 * served + failed + early-dropped == accepted. Appends each verdict
 * and its expected label to @p served / @p truth.
 */
telemetry::MetricsSnapshot
stopAndCheck(Serving &serving, const Inputs &inputs, Outcome &out,
             std::vector<int> &truth, std::vector<int> &served)
{
    serving.server->stop();
    telemetry::MetricsSnapshot after = serving.metrics->snapshot();
    const VerdictSlots &slots = *serving.slots;
    std::uint64_t verdicts = 0, mismatches = 0;
    for (std::size_t slot = 0; slot < serving.submitted; ++slot) {
        if (slots.doneNs[slot] == 0)
            continue;
        ++verdicts;
        int expected = inputs.reference[slot % kPoolFrames];
        truth.push_back(expected);
        served.push_back(slots.verdict[slot]);
        mismatches += slots.verdict[slot] != expected;
    }
    out.check(mismatches == 0,
              "frames-mlp: " + std::to_string(mismatches) +
                  " verdicts differ from the scalar-pinned plan");
    out.check(verdicts == after.counterValue("server.rows_served"),
              "frames-mlp: verdict callbacks != server.rows_served");
    out.check(partitionHolds(after),
              "frames-mlp: served + failed + early-dropped != accepted");
    out.check(after.counterValue("server.malformed_frames") == 0,
              "frames-mlp: malformed frames in the pool");
    return after;
}

/** Closed loop on a fresh server for @p seconds: returns the median
 *  verdict rate over its kThroughputWindowS windows, and adds the
 *  attempts and failures to @p out. */
double
closedLoop(const Inputs &inputs, double seconds, Outcome &out,
           std::vector<int> &truth, std::vector<int> &served)
{
    std::size_t capacity =
        kWarmupFrames + static_cast<std::size_t>(kClosedRateCap * seconds);
    std::unique_ptr<Serving> serving = startServing(inputs, capacity);
    std::size_t first = serving->submitted;
    std::int64_t start = nowNs();
    std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    while (serving->submitted < capacity && nowNs() < end)
        serving->submitNext(inputs);
    end = nowNs();
    stopAndCheck(*serving, inputs, out, truth, served);

    std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(end - start) * 1e-9 /
                                    kThroughputWindowS));
    std::vector<double> counts(windows, 0.0);
    std::int64_t span = (end - start) / static_cast<std::int64_t>(windows);
    for (std::size_t slot = first; slot < serving->submitted; ++slot) {
        std::int64_t done = serving->slots->doneNs[slot];
        out.failed += done == 0;
        if (done < start || done >= end)
            continue;
        std::size_t w = static_cast<std::size_t>((done - start) / span);
        counts[std::min(w, windows - 1)] += 1.0;
    }
    out.attempted += serving->submitted - first;
    std::vector<double> rates;
    for (double c : counts)
        rates.push_back(c / (static_cast<double>(span) * 1e-9));
    return median(std::move(rates));
}

}  // namespace

Outcome
runFramesMlp(const RunSpec &spec)
{
    Outcome out;
    std::size_t open_n = static_cast<std::size_t>(kOpenRate * spec.seconds);

    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup = timedSetups(spec, setup_s, [&] {
        auto built = std::make_unique<Setup>();
        built->inputs = makeInputs(spec.seed);
        built->serving = startServing(built->inputs, kWarmupFrames + open_n);
        return built;
    });
    const Inputs &inputs = setup->inputs;
    Serving &serving = *setup->serving;
    auto before = serving.metrics->snapshot();

    // ---- phase 1: open loop --------------------------------------------
    std::size_t first_open = serving.submitted;
    std::vector<float> lag_us(open_n);
    std::vector<std::int64_t> submit_ns;   // traced: submit duration.
    std::vector<std::int64_t> returned_ns; // traced: submit return time.
    if (spec.traced) {
        submit_ns.resize(open_n);
        returned_ns.resize(open_n);
    }
    std::int64_t period_ns = static_cast<std::int64_t>(1e9 / kOpenRate);
    std::int64_t open_start = nowNs() + 1'000'000;
    std::vector<bool> stalled(kLatencyWindows, false);
    auto window_of = [&](std::size_t i) { return i * kLatencyWindows / open_n; };
    for (std::size_t i = 0; i < open_n; ++i) {
        std::int64_t due = open_start + static_cast<std::int64_t>(i) * period_ns;
        bool host_stall = false;
        std::int64_t began = waitUntil(due, host_stall);
        if (host_stall)
            stalled[window_of(i)] = true;
        lag_us[i] = static_cast<float>(began - due) * 1e-3f;
        serving.submitNext(inputs);
        if (spec.traced) {
            std::int64_t done = nowNs();
            submit_ns[i] = done - began;
            returned_ns[i] = done;
        }
    }
    std::vector<int> truth, served;
    auto after = stopAndCheck(serving, inputs, out, truth, served);

    std::vector<std::vector<double>> latency_us(kLatencyWindows);
    std::int64_t last_done = open_start;
    for (std::size_t i = 0; i < open_n; ++i) {
        std::int64_t done = serving.slots->doneNs[first_open + i];
        last_done = std::max(last_done, done);
        std::int64_t due = open_start + static_cast<std::int64_t>(i) * period_ns;
        latency_us[window_of(i)].push_back(
            done == 0 ? kInf : static_cast<double>(done - due) * 1e-3);
        out.failed += done == 0;
    }
    out.attempted += open_n;

    // ---- end-to-end metrics --------------------------------------------
    double p99 = windowedPercentile(latency_us, 99.0, stalled);
    out.e2e["setup_s"] = {median(setup_s), "s"};
    out.e2e["p50_us"] = {windowedPercentile(latency_us, 50.0, stalled), "us"};
    out.e2e["p99_us"] = {p99, "us"};
    out.e2e["probe_p99_us"] = {p99, "us"};  // lane 0 is the only lane.
    out.e2e["served_frac"] = {static_cast<double>(out.attempted - out.failed) /
                                  static_cast<double>(out.attempted),
                              "ratio"};
    out.e2e["rows_s"] = {static_cast<double>(out.attempted - out.failed) /
                             (static_cast<double>(last_done - open_start) *
                              1e-9),
                         "rows/s"};
    out.e2e["best_f1"] = {taskF1(truth, served, 5), "F1"};
    out.notes.push_back("open loop: " + std::to_string(open_n) +
                        " requests at " + std::to_string(int(kOpenRate)) +
                        "/s, latency from due time, " +
                        std::to_string(kLatencyWindows) +
                        " windows (median of per-window percentiles), " +
                        std::to_string(excludedWindows(stalled)) +
                        " left out for host stalls");
    double lag_p99 = percentile({lag_us.begin(), lag_us.end()}, 99.0);
    if (lag_p99 > 1000.0)
        out.notes.push_back("WARNING: generator ran late (lag p99 " +
                            std::to_string(lag_p99) +
                            " us); latency figures are suspect");

    out.hostStalled = mostlyStalled(stalled);
    if (!spec.traced)
        return out;

    // ---- per-layer metrics ---------------------------------------------
    Metrics &layers = out.layers;
    std::vector<double> server_rates;
    Outcome closed;  // the closed loop's checks count, its tallies do not.
    for (std::size_t r = 0; r < kClosedServers; ++r)
        server_rates.push_back(closedLoop(
            inputs, spec.seconds / kClosedServers, closed, truth, served));
    out.errors.insert(out.errors.end(), closed.errors.begin(),
                      closed.errors.end());
    double mean_rate = 0.0;
    std::string rate_list;
    for (double rate : server_rates) {
        mean_rate += rate / static_cast<double>(server_rates.size());
        rate_list += " " + std::to_string(static_cast<long>(rate));
    }
    layers["server.saturation_rows_s"] = {mean_rate, "rows/s"};
    out.notes.push_back("closed loop: server.saturation_rows_s = mean over " +
                        std::to_string(kClosedServers) +
                        " fresh servers of each one's median window rate:" +
                        rate_list);
    net::FeatureExtractor extractor;
    std::vector<double> extract_us;
    for (std::size_t i = 0; i < 4 * kPoolFrames; ++i) {
        std::int64_t start = nowNs();
        auto row = extractor.extractFromWire(inputs.frames[i % kPoolFrames]);
        extract_us.push_back(static_cast<double>(nowNs() - start) * 1e-3);
        if (!row)
            out.check(false, "frames-mlp: extractor rejected a pool frame");
    }
    layers["net.extract_us.p50"] = {percentile(extract_us, 50), "us"};
    layers["net.extract_us.p99"] = {percentile(extract_us, 99), "us"};
    std::vector<double> submit_us, admit_us;
    for (std::size_t i = 0; i < open_n; ++i) {
        submit_us.push_back(static_cast<double>(submit_ns[i]) * 1e-3);
        std::int64_t done = serving.slots->doneNs[first_open + i];
        admit_us.push_back(done == 0 ? kInf
                                     : static_cast<double>(done -
                                                           returned_ns[i]) *
                                           1e-3);
    }
    layers["server.submit_us.p50"] = {percentile(submit_us, 50), "us"};
    layers["server.submit_us.p99"] = {percentile(submit_us, 99), "us"};
    layers["gen.lag_us.p99"] = {lag_p99, "us"};
    layers["gen.stalled_windows"] = {
        static_cast<double>(std::count(stalled.begin(), stalled.end(), true)),
        "count"};
    layers["queue.admit_to_verdict_us.p50"] = {percentile(admit_us, 50), "us"};
    layers["queue.admit_to_verdict_us.p99"] = {percentile(admit_us, 99), "us"};
    addLaneMetrics(layers, before, after, 0);
    addBatcherMetrics(layers, before, after, {"tc"});
    layers["registry.pins"] = {sumDelta(before, after, "registry.pins"),
                               "count"};
    return out;
}

}  // namespace perfbench
