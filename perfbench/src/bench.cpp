#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

bool
mostlyStalled(const std::vector<bool> &stalled)
{
    std::size_t count = 0;
    for (bool s : stalled)
        count += s;
    return 2 * count > stalled.size();
}

std::size_t
excludedWindows(const std::vector<bool> &stalled)
{
    if (mostlyStalled(stalled))
        return 0;
    std::size_t count = 0;
    for (bool s : stalled)
        count += s;
    return count;
}

double
windowedPercentile(const std::vector<std::vector<double>> &windows, double p,
                   const std::vector<bool> &stalled)
{
    bool skip = excludedWindows(stalled) > 0;
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows.size(); ++w)
        if (!windows[w].empty() && !(skip && stalled[w]))
            per_window.push_back(percentile(windows[w], p));
    return median(std::move(per_window));
}

double
taskF1(const std::vector<int> &truth, const std::vector<int> &predicted,
       int classes)
{
    auto f1_of = [&](int positive) {
        double tp = 0, fp = 0, fn = 0;
        for (std::size_t i = 0; i < truth.size(); ++i) {
            bool said = predicted[i] == positive;
            bool is = truth[i] == positive;
            tp += said && is;
            fp += said && !is;
            fn += !said && is;
        }
        double precision = tp + fp > 0 ? tp / (tp + fp) : 0.0;
        double recall = tp + fn > 0 ? tp / (tp + fn) : 0.0;
        return precision + recall > 0
                   ? 2.0 * precision * recall / (precision + recall)
                   : 0.0;
    };
    if (classes == 2)
        return f1_of(1);
    double total = 0.0;
    for (int c = 0; c < classes; ++c)
        total += f1_of(c);
    return total / classes;
}

ProcStats
procStats()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    ProcStats stats;
    stats.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    stats.cpuSeconds = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    stats.volCtxSwitches = static_cast<double>(usage.ru_nvcsw);
    stats.involCtxSwitches = static_cast<double>(usage.ru_nivcsw);
    return stats;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"setup_s", "s"},         {"p50_us", "us"},
        {"p99_us", "us"},         {"probe_p99_us", "us"},
        {"served_frac", "ratio"}, {"rows_s", "rows/s"},
        {"best_f1", "F1"},        {"peak_rss_mb", "MB"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        [] {
            std::vector<std::pair<std::string, std::string>> out = {
                // net
                {"net.extract_us.p50", "us"},
                {"net.extract_us.p99", "us"},
                // runtime.server, producer side
                {"server.submit_us.p50", "us"},
                {"server.submit_us.p99", "us"},
                {"server.saturation_rows_s", "rows/s"},
                {"gen.lag_us.p99", "us"},
                {"gen.stalled_windows", "count"},
            };
            // runtime.request_queue, per lane
            for (const char *lane : {"lane0", "lane1"}) {
                std::string base = std::string("queue.") + lane + ".";
                for (const char *counter :
                     {"accepted", "shed", "early_dropped", "block_timeouts",
                      "size_flushes", "deadline_flushes", "aged_flushes"})
                    out.emplace_back(base + counter, "count");
                out.emplace_back(base + "mean_batch_rows", "rows");
            }
            out.insert(out.end(),
                       {
                           {"queue.admit_to_verdict_us.p50", "us"},
                           {"queue.admit_to_verdict_us.p99", "us"},
                           {"fail_frac", "ratio"},
                           // runtime.server, batcher
                           {"server.batches", "count"},
                           {"server.batch_exec_us.p50", "us"},
                           {"server.batch_exec_us.p99", "us"},
                           {"server.failed_rows", "count"},
                           {"server.retried_batches", "count"},
                           {"server.callback_errors", "count"},
                       });
            // runtime.router
            for (const char *model : {"tc", "front", "deep"})
                out.emplace_back(std::string("router.hop_rows.") + model,
                                 "rows");
            out.emplace_back("router.escalation_frac", "ratio");
            for (const char *model : {"tc", "front", "deep"}) {
                out.emplace_back(std::string("router.step_us.p50.") + model,
                                 "us");
                out.emplace_back(std::string("router.step_us.p99.") + model,
                                 "us");
            }
            out.insert(out.end(),
                       {
                           {"router.fallback_rows", "count"},
                           {"router.deadline_truncated", "count"},
                           // runtime.model_registry
                           {"registry.swap_us.p50", "us"},
                           {"registry.swap_us.max", "us"},
                           {"registry.swaps", "count"},
                           {"registry.pins", "count"},
                           {"registry.swap_window_p99_us", "us"},
                           {"registry.steady_p99_us", "us"},
                       });
            // runtime.inference_engine + executor, ir.exec_plan + kernels
            for (const char *family : {"mlp", "svm", "kmeans", "tree"}) {
                std::string f = family;
                out.emplace_back("engine.run_us.p50." + f, "us");
                out.emplace_back("engine.run_us.p99." + f, "us");
            }
            out.emplace_back("engine.scaling", "x");
            for (const char *family : {"mlp", "svm", "kmeans", "tree"}) {
                std::string f = family;
                out.emplace_back("plan.rows_s." + f, "rows/s");
                out.emplace_back("plan.vs_scalar." + f, "x");
                out.emplace_back("plan.ops_per_row." + f, "ops");
                out.emplace_back("plan.bytes_per_row." + f, "bytes");
            }
            out.emplace_back("kernels.target_id", "id");
            // core.compiler
            for (const char *stage : {"load_data", "select_families",
                                      "search", "pick_winner", "emit"})
                out.emplace_back(std::string("compile.stage_s.") + stage,
                                 "s");
            // opt + ml
            out.insert(out.end(), {
                                      {"bo.evals", "count"},
                                      {"bo.eval_ms.p50", "ms"},
                                      {"bo.eval_ms.p99", "ms"},
                                  });
            for (const char *family : {"dnn", "svm", "kmeans",
                                       "decision_tree"})
                out.emplace_back(std::string("bo.family_s.") + family, "s");
            out.emplace_back("bo.feasible_frac", "ratio");
            // ir.passes + backends
            for (const char *pass : {"validate", "prune-dead",
                                     "fold-constants"})
                out.emplace_back(std::string("passes.pass_ms.") + pass, "ms");
            out.insert(out.end(), {
                                      {"passes.params_after", "count"},
                                      {"codegen.code_bytes", "bytes"},
                                      // process
                                      {"proc.cpu_s", "s"},
                                      {"proc.vol_ctx_switches", "count"},
                                      {"proc.invol_ctx_switches", "count"},
                                  });
            for (const auto &[name, unit] : endToEndNames())
                out.emplace_back("trace.overhead." + name, unit);
            return out;
        }();
    return names;
}

}  // namespace perfbench
