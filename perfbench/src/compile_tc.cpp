/**
 * @file
 * compile-tc: the compile path. Each CompileSession runs the
 * traffic-classification app (every model family, F1 objective) for
 * the paper's Taurus target (16x16 grid, 1 GPkt/s, 500 ns) on its own
 * dataset drawn from --seed, so a run's figures average over several
 * search paths. Each stage call is timed from outside, and every
 * winner is re-scored on its test split here: that F1 must equal the
 * objective the compiler reported.
 */
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"

#include "core/compiler.hpp"
#include "data/iot_traffic_generator.hpp"
#include "ir/exec_plan.hpp"

namespace perfbench {

using namespace homunculus;

namespace {

constexpr std::size_t kJobs = 1;
constexpr std::size_t kInitSamples = 3;
constexpr std::size_t kIterations = 10;
/** The compiler's own search seed: fixed, so --seed varies the data the
 *  compiler sees and not the compiler's configuration. */
constexpr std::uint64_t kSearchSeed = 2206'05592;
/** One session per this many seconds of --seconds (at least two): the
 *  count depends only on the arguments, so best_f1 is deterministic. */
constexpr double kSessionSeconds = 4.0;

ml::DataSplit
tcSplit(std::uint64_t seed)
{
    data::IotTrafficConfig config;
    config.numSamples = 5000;
    config.noiseLevel = 1.6;
    config.seed = seed;
    return data::generateIotTrafficSplit(config);
}

core::PlatformHandle
paperTaurus(const ml::DataSplit &split)
{
    core::PlatformHandle handle = core::Platforms::taurus();
    handle.constrain({/*minThroughputGpps=*/1.0, /*maxLatencyNs=*/500.0},
                     {/*gridRows=*/16, /*gridCols=*/16, /*matTables=*/{}});
    core::ModelSpec spec;
    spec.name = "traffic_classification";
    spec.optimizationMetric = core::Metric::kF1;
    spec.maxHiddenLayers = 4;
    spec.dataLoader = [split] { return split; };
    handle.schedule(spec);
    return handle;
}

/** Everything one session reported, timed from outside. */
struct SessionTimes
{
    double total = 0.0;
    std::map<std::string, double> stage;
    std::vector<double> evalMs;
    std::map<std::string, double> familyS;
    std::map<std::string, double> passMs;
    std::size_t evals = 0;
    std::size_t feasible = 0;
};

}  // namespace

Outcome
runCompileTc(const RunSpec &spec)
{
    Outcome out;
    std::size_t session_count = std::max<std::size_t>(
        2, static_cast<std::size_t>(spec.seconds / kSessionSeconds));
    std::vector<double> setup_s;
    std::vector<ml::DataSplit> splits = timedSetups(spec, setup_s, [&] {
        std::vector<ml::DataSplit> generated;
        for (std::size_t k = 0; k < session_count; ++k)
            generated.push_back(tcSplit(spec.seed * 1000 + k));
        return generated;
    });

    std::vector<SessionTimes> sessions;
    std::vector<double> objectives;
    std::vector<double> scored_rows_s;
    std::size_t code_bytes = 0, params_after = 0;
    for (const ml::DataSplit &split : splits) {
        core::PlatformHandle platform = paperTaurus(split);
        SessionTimes times;
        std::mutex mutex;
        std::map<std::string, std::int64_t> last_event;
        std::map<std::string, std::int64_t> first_event;
        std::int64_t last_pass = 0;

        core::CompileOptions options;
        options.bo.numInitSamples = kInitSamples;
        options.bo.numIterations = kIterations;
        options.seed = kSearchSeed;
        options.jobs = kJobs;
        // Families run one after another (kJobs == 1), so the gap since
        // the previous progress event of any family is one evaluation.
        static_assert(kJobs == 1, "evaluation gaps assume one family at "
                                  "a time");
        std::int64_t last_any = 0;
        options.observer = [&](const core::ProgressEvent &event) {
            if (event.family.empty() || event.evalsDone == 0)
                return;
            std::lock_guard<std::mutex> lock(mutex);
            std::int64_t now = nowNs();
            times.evalMs.push_back(static_cast<double>(now - last_any) * 1e-6);
            first_event.emplace(event.family, last_any);
            last_event[event.family] = now;
            last_any = now;
        };
        options.passDump = [&](const std::string &pass, const ir::ModelIr &) {
            std::int64_t now = nowNs();
            times.passMs[pass] += static_cast<double>(now - last_pass) * 1e-6;
            last_pass = now;
        };

        core::CompileSession session(platform, options);
        std::int64_t began = nowNs();
        auto timed = [&](const char *stage, auto &&call) {
            std::int64_t t = nowNs();
            core::Status status = call();
            times.stage[stage] = secondsSince(t);
            if (!status.isOk())
                throw std::runtime_error(std::string("compile-tc: ") + stage +
                                         " failed: " + status.toString());
        };
        timed("load_data", [&] { return session.loadData(); });
        timed("select_families", [&] { return session.selectFamilies(); });
        last_any = nowNs();
        timed("search", [&] { return session.searchFamilies(); });
        timed("pick_winner", [&] { return session.pickWinner(); });
        last_pass = nowNs();
        timed("emit", [&] { return session.emit(); });
        times.total = secondsSince(began);

        for (const auto &[family, first] : first_event)
            times.familyS[family] =
                static_cast<double>(last_event[family] - first) * 1e-9;
        for (const core::FamilySearch &search :
             *session.searchesFor("traffic_classification")) {
            for (const auto &record : search.search.history) {
                ++times.evals;
                times.feasible += record.result.feasible;
            }
        }

        const core::GeneratedModel &winner = session.report().models.front();
        ir::ExecutablePlan plan = ir::ExecutablePlan::compile(winner.model);
        std::vector<int> predicted = plan.run(split.test.x);
        double f1 = taskF1(split.test.y, predicted, split.test.numClasses);
        out.check(f1 == winner.objective,
                  "compile-tc: re-scored F1 " + std::to_string(f1) +
                      " != reported objective " +
                      std::to_string(winner.objective));
        objectives.push_back(winner.objective);
        code_bytes = winner.code.size();
        params_after = winner.model.paramCount();
        scored_rows_s.push_back(static_cast<double>(times.evals) *
                                static_cast<double>(split.test.numSamples()) /
                                times.total);
        sessions.push_back(std::move(times));
        ++out.attempted;
    }

    std::vector<double> session_us;
    for (const SessionTimes &s : sessions)
        session_us.push_back(s.total * 1e6);
    // A handful of sessions has no tail to measure: the highest
    // percentile with samples beyond it is the median, so the p99
    // figures report it too (the slowest session is only printed).
    double p50 = median(session_us);
    out.e2e["setup_s"] = {median(setup_s), "s"};
    out.e2e["p50_us"] = {p50, "us"};
    out.e2e["p99_us"] = {p50, "us"};
    out.e2e["probe_p99_us"] = {p50, "us"};  // one request class.
    out.e2e["served_frac"] = {1.0, "ratio"};  // a failed stage throws.
    out.e2e["rows_s"] = {median(scored_rows_s), "rows/s"};
    double f1_sum = 0.0;
    for (double f1 : objectives)
        f1_sum += f1;
    out.e2e["best_f1"] = {f1_sum / static_cast<double>(objectives.size()),
                          "F1"};
    out.notes.push_back(
        std::to_string(sessions.size()) + " CompileSessions (init " +
        std::to_string(kInitSamples) + ", iters " +
        std::to_string(kIterations) + ", jobs " + std::to_string(kJobs) +
        "), one per generated dataset; p50_us is the median session (the "
        "compile time), best_f1 the mean winner F1");

    std::string session_list;
    for (double us : session_us)
        session_list += " " + std::to_string(us * 1e-6);
    out.notes.push_back("session seconds:" + session_list);

    if (!spec.traced)
        return out;

    // Per-layer: medians over the run's sessions.
    Metrics &layers = out.layers;
    auto median_of = [&](auto &&pick) {
        std::vector<double> values;
        for (const SessionTimes &s : sessions)
            values.push_back(pick(s));
        return median(std::move(values));
    };
    for (const char *stage : {"load_data", "select_families", "search",
                              "pick_winner", "emit"})
        layers[std::string("compile.stage_s.") + stage] = {
            median_of([&](const SessionTimes &s) { return s.stage.at(stage); }),
            "s"};
    std::vector<double> eval_ms;
    for (const SessionTimes &s : sessions)
        eval_ms.insert(eval_ms.end(), s.evalMs.begin(), s.evalMs.end());
    layers["bo.evals"] = {
        median_of([](const SessionTimes &s) { return double(s.evals); }),
        "count"};
    layers["bo.eval_ms.p50"] = {percentile(eval_ms, 50), "ms"};
    layers["bo.eval_ms.p99"] = {percentile(eval_ms, 99), "ms"};
    for (const char *family : {"dnn", "svm", "kmeans", "decision_tree"})
        layers[std::string("bo.family_s.") + family] = {
            median_of([&](const SessionTimes &s) {
                auto it = s.familyS.find(family);
                return it != s.familyS.end() ? it->second : 0.0;
            }),
            "s"};
    layers["bo.feasible_frac"] = {
        median_of([](const SessionTimes &s) {
            return s.evals > 0 ? double(s.feasible) / double(s.evals) : 0.0;
        }),
        "ratio"};
    for (const char *pass : {"validate", "prune-dead", "fold-constants"})
        layers[std::string("passes.pass_ms.") + pass] = {
            median_of([&](const SessionTimes &s) {
                auto it = s.passMs.find(pass);
                return it != s.passMs.end() ? it->second : 0.0;
            }),
            "ms"};
    layers["passes.params_after"] = {double(params_after), "count"};
    layers["codegen.code_bytes"] = {double(code_bytes), "bytes"};
    return out;
}

}  // namespace perfbench
