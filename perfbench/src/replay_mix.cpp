/**
 * @file
 * replay-mix: closed-loop batch inference. The caller blocks in
 * InferenceEngine::run on kBatchRows-row batches with kJobs workers,
 * cycling through four 16-feature models (MLP, SVM, KMeans, tree) so
 * each family gets the same rows. Kernels, the execution plan and the
 * executor do nearly all the work; no queue, router or net is on the
 * path.
 */
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "models.hpp"

#include "runtime/inference_engine.hpp"

namespace perfbench {

using namespace homunculus;

namespace {

constexpr std::size_t kBatchRows = 16384;
constexpr std::size_t kBatches = 4;
constexpr std::size_t kFeatures = 16;
constexpr std::size_t kJobs = 3;
constexpr std::size_t kLatencyWindows = 2;
constexpr const char *kFamilies[] = {"mlp", "svm", "kmeans", "tree"};

struct Setup
{
    std::vector<math::Matrix> batches;
    std::vector<ir::ModelIr> models;  ///< kFamilies order.
    std::vector<runtime::InferenceEngine> engines;
    /** reference[model][batch]: scalar-pinned single-thread labels. */
    std::vector<std::vector<std::vector<int>>> reference;
};

std::unique_ptr<Setup>
buildSetup(std::uint64_t seed)
{
    auto setup = std::make_unique<Setup>();
    math::Matrix all = mixtureRows(kBatchRows * kBatches, kFeatures, 8, seed);
    for (std::size_t b = 0; b < kBatches; ++b) {
        math::Matrix batch(kBatchRows, kFeatures);
        std::memcpy(batch.data().data(), all.rowPtr(b * kBatchRows),
                    kBatchRows * kFeatures * sizeof(double));
        setup->batches.push_back(std::move(batch));
    }
    const math::Matrix &calib = setup->batches[0];
    setup->models.push_back(
        makeMlp("mlp", {kFeatures, 32, 32, 4}, seed ^ 0x31ull, calib));
    setup->models.push_back(makeSvm("svm", kFeatures, 4, seed ^ 0x32ull, calib));
    setup->models.push_back(makeKMeans("kmeans", 8, seed ^ 0x33ull, calib));
    setup->models.push_back(makeTree("tree", 8, 4, seed ^ 0x34ull, calib));

    runtime::EngineOptions options;
    options.jobs = kJobs;
    for (const ir::ModelIr &model : setup->models) {
        setup->engines.push_back(
            runtime::InferenceEngine::fromModel(model, options));
        std::vector<std::vector<int>> labels;
        std::vector<int> every;
        for (const math::Matrix &batch : setup->batches) {
            labels.push_back(scalarLabels(model, batch));
            every.insert(every.end(), labels.back().begin(),
                         labels.back().end());
        }
        requireNonDegenerate(model, every);
        setup->reference.push_back(std::move(labels));
    }
    std::vector<int> out(kBatchRows);
    for (const auto &engine : setup->engines)
        engine.run(setup->batches[0], out.data());  // warm the pool.
    return setup;
}

/** Single-thread runRange rows/s of @p plan over @p x, timed for
 *  about @p seconds. */
double
planRowsPerSecond(const ir::ExecutablePlan &plan, const math::Matrix &x,
                  double seconds)
{
    ir::ExecutablePlan::Scratch scratch;
    std::vector<int> labels(x.rows());
    std::size_t rows = 0;
    std::int64_t start = nowNs();
    do {
        plan.runRange(x, 0, x.rows(), labels.data(), scratch);
        rows += x.rows();
    } while (secondsSince(start) < seconds);
    return static_cast<double>(rows) / secondsSince(start);
}

/** rows/s of a jobs-wide engine over every batch for about @p seconds. */
double
engineRowsPerSecond(const runtime::InferenceEngine &engine,
                    const std::vector<math::Matrix> &batches, double seconds)
{
    std::vector<int> labels(kBatchRows);
    std::size_t rows = 0;
    std::int64_t start = nowNs();
    for (std::size_t i = 0; secondsSince(start) < seconds; ++i) {
        engine.run(batches[i % batches.size()], labels.data());
        rows += kBatchRows;
    }
    return static_cast<double>(rows) / secondsSince(start);
}

}  // namespace

Outcome
runReplayMix(const RunSpec &spec)
{
    Outcome out;
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup =
        timedSetups(spec, setup_s, [&] { return buildSetup(spec.seed); });

    // One round = one batch through all four models; its latency is the
    // unit of work, bucketed into kLatencyWindows windows by start time.
    std::size_t families = setup->engines.size();
    std::vector<std::vector<double>> run_us(families);
    std::vector<std::vector<double>> round_us(kLatencyWindows);
    std::vector<double> round_rates;
    std::vector<int> labels(kBatchRows);
    std::uint64_t mismatches = 0;
    std::int64_t start = nowNs();
    for (std::size_t round = 0; secondsSince(start) < spec.seconds; ++round) {
        const math::Matrix &batch = setup->batches[round % kBatches];
        std::size_t window = std::min(
            kLatencyWindows - 1,
            static_cast<std::size_t>(secondsSince(start) / spec.seconds *
                                     kLatencyWindows));
        double round_s = 0.0;
        for (std::size_t m = 0; m < families; ++m) {
            std::int64_t began = nowNs();
            setup->engines[m].run(batch, labels.data());
            std::int64_t took = nowNs() - began;
            run_us[m].push_back(static_cast<double>(took) * 1e-3);
            round_s += static_cast<double>(took) * 1e-9;
            if (labels != setup->reference[m][round % kBatches])
                ++mismatches;
            out.attempted += kBatchRows;
        }
        round_us[window].push_back(round_s * 1e6);
        round_rates.push_back(static_cast<double>(kBatchRows * families) /
                              round_s);
    }
    out.failed = mismatches * kBatchRows;
    out.check(mismatches == 0,
              "replay-mix: " + std::to_string(mismatches) +
                  " batches differ from the scalar-pinned reference");

    double p99 = windowedPercentile(round_us, 99.0);
    out.e2e["setup_s"] = {median(setup_s), "s"};
    out.e2e["p50_us"] = {windowedPercentile(round_us, 50.0), "us"};
    out.e2e["p99_us"] = {p99, "us"};
    out.e2e["probe_p99_us"] = {p99, "us"};  // one request class.
    out.e2e["served_frac"] = {
        static_cast<double>(out.attempted - out.failed) /
            static_cast<double>(out.attempted),
        "ratio"};
    out.e2e["rows_s"] = {median(round_rates), "rows/s"};
    out.e2e["best_f1"] = {mismatches == 0 ? 1.0 : 0.0, "F1"};
    out.notes.push_back(std::to_string(round_rates.size()) +
                        " rounds of one " + std::to_string(kBatchRows) +
                        "-row batch through all four models at jobs=" +
                        std::to_string(kJobs) +
                        "; latency per round, median of " +
                        std::to_string(kLatencyWindows) +
                        " windows' percentiles; rows_s = median round rate");

    if (!spec.traced)
        return out;

    Metrics &layers = out.layers;
    runtime::EngineOptions one_job;
    one_job.jobs = 1;
    double wide = 0.0, narrow = 0.0;
    for (std::size_t m = 0; m < families; ++m) {
        std::string family = kFamilies[m];
        const ir::ModelIr &model = setup->models[m];
        layers["engine.run_us.p50." + family] = {percentile(run_us[m], 50),
                                                 "us"};
        layers["engine.run_us.p99." + family] = {percentile(run_us[m], 99),
                                                 "us"};
        ir::ExecutablePlan plan = ir::ExecutablePlan::compile(model);
        ir::ExecutablePlan scalar = plan;
        scalar.forceKernelTarget(kernels::KernelTarget::kScalar);
        double dispatched = planRowsPerSecond(plan, setup->batches[0], 0.2);
        double reference = planRowsPerSecond(scalar, setup->batches[0], 0.2);
        layers["plan.rows_s." + family] = {dispatched, "rows/s"};
        layers["plan.vs_scalar." + family] = {dispatched / reference, "x"};
        layers["plan.ops_per_row." + family] = {opsPerRow(model), "ops"};
        layers["plan.bytes_per_row." + family] = {bytesPerRow(model), "bytes"};
        // engine.scaling: total time of a pass over the families, so the
        // ratio weighs each family by the time it takes.
        wide += 1.0 / engineRowsPerSecond(setup->engines[m], setup->batches,
                                          0.2);
        narrow += 1.0 / engineRowsPerSecond(
                            runtime::InferenceEngine::fromModel(model, one_job),
                            setup->batches, 0.2);
    }
    layers["engine.scaling"] = {narrow / wide, "x"};
    out.notes.push_back("plan.ops_per_row and plan.bytes_per_row are "
                        "computed from model shape, not measured");
    return out;
}

}  // namespace perfbench
