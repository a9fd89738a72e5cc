#include "models.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "ir/exec_plan.hpp"

namespace perfbench {

using namespace homunculus;

namespace {

const common::FixedPointFormat kQ88 = common::FixedPointFormat::q88();

std::vector<std::int32_t>
quantizeRow(const math::Matrix &x, std::size_t r)
{
    std::vector<std::int32_t> q(x.cols());
    kQ88.quantizeInto(x.rowPtr(r), q.data(), x.cols());
    return q;
}

/**
 * Shift per-class offsets so argmax(scores + offset) hands out roughly
 * @p shares of the rows, returning the closest offsets found. @p scores
 * is rows x classes in raw words; the offsets are raw words too. It
 * always runs every iteration, so set-up costs the same for every seed.
 */
std::vector<double>
balanceOffsets(const std::vector<std::vector<double>> &scores,
               const std::vector<double> &shares)
{
    std::size_t classes = shares.size();
    double spread = 0.0;
    for (const auto &row : scores)
        for (double s : row)
            spread += s * s;
    spread = std::sqrt(spread / static_cast<double>(scores.size() *
                                                     classes)) +
             1.0;
    std::vector<double> offset(classes, 0.0);
    std::vector<double> best = offset;
    double best_error = 2.0;
    std::vector<double> got(classes);
    for (int iter = 0; iter < 400; ++iter) {
        std::fill(got.begin(), got.end(), 0.0);
        for (const auto &row : scores) {
            std::size_t pick = 0;
            for (std::size_t c = 1; c < classes; ++c)
                if (row[c] + offset[c] > row[pick] + offset[pick])
                    pick = c;
            got[pick] += 1.0;
        }
        double worst = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
            got[c] /= static_cast<double>(scores.size());
            worst = std::max(worst, std::abs(got[c] - shares[c]));
        }
        if (worst < best_error) {
            best_error = worst;
            best = offset;
        }
        double step = spread * (iter < 200 ? 0.5 : 0.1);
        for (std::size_t c = 0; c < classes; ++c)
            offset[c] += step * (shares[c] - got[c]);
    }
    return best;
}

std::int32_t
clampWord(double raw)
{
    return static_cast<std::int32_t>(
        std::clamp(std::lround(raw), -32768L, 32767L));
}

}  // namespace

math::Matrix
mixtureRows(std::size_t rows, std::size_t cols, std::size_t clusters,
            std::uint64_t seed)
{
    common::Rng rng(seed);
    math::Matrix centres(clusters, cols);
    for (double &v : centres.data())
        v = rng.uniform(-2.0, 2.0);
    math::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        std::size_t k =
            static_cast<std::size_t>(rng.uniformInt(0, clusters - 1));
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = centres(k, c) + rng.gaussian(0.0, 1.0);
    }
    return x;
}

ir::ModelIr
makeMlp(const std::string &name, const std::vector<std::size_t> &dims,
        std::uint64_t seed, const math::Matrix &calib,
        std::vector<double> shares)
{
    if (dims.size() < 2 || dims.front() != calib.cols())
        throw std::runtime_error("makeMlp: bad layer widths");
    common::Rng rng(seed);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kMlp;
    model.name = name;
    model.inputDim = dims.front();
    model.numClasses = static_cast<int>(dims.back());
    model.format = kQ88;
    model.scalerRecorded = true;  // the rows arrive in model units.
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        ir::QuantizedLayer layer;
        layer.inputDim = dims[l];
        layer.outputDim = dims[l + 1];
        double scale = std::sqrt(2.0 / static_cast<double>(dims[l]));
        for (std::size_t i = 0; i < dims[l] * dims[l + 1]; ++i)
            layer.weights.push_back(
                kQ88.quantize(rng.gaussian(0.0, scale)));
        for (std::size_t o = 0; o < dims[l + 1]; ++o)
            layer.biases.push_back(kQ88.quantize(rng.gaussian(0.0, 0.1)));
        model.layers.push_back(std::move(layer));
    }

    // Output scores of the calibration rows in raw words (the plan's
    // arithmetic without its per-step truncation), then balance.
    std::vector<std::vector<double>> scores;
    for (std::size_t r = 0; r < std::min(calib.rows(), kCalibRows); ++r) {
        std::vector<std::int32_t> q = quantizeRow(calib, r);
        std::vector<double> act(q.begin(), q.end());
        for (std::size_t l = 0; l < model.layers.size(); ++l) {
            const ir::QuantizedLayer &layer = model.layers[l];
            std::vector<double> next(layer.outputDim);
            for (std::size_t o = 0; o < layer.outputDim; ++o) {
                double acc = layer.biases[o];
                for (std::size_t i = 0; i < layer.inputDim; ++i)
                    acc += act[i] * layer.weight(i, o) / 256.0;
                next[o] = l + 1 < model.layers.size() ? std::max(acc, 0.0)
                                                      : acc;
            }
            act = std::move(next);
        }
        scores.push_back(std::move(act));
    }
    if (shares.empty())
        shares.assign(dims.back(), 1.0 / static_cast<double>(dims.back()));
    std::vector<double> offset = balanceOffsets(scores, shares);
    ir::QuantizedLayer &out = model.layers.back();
    for (std::size_t c = 0; c < out.outputDim; ++c)
        out.biases[c] = clampWord(out.biases[c] + offset[c]);
    model.validate();
    return model;
}

ir::ModelIr
makeSvm(const std::string &name, std::size_t inputs, int classes,
        std::uint64_t seed, const math::Matrix &calib)
{
    common::Rng rng(seed);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kSvm;
    model.name = name;
    model.inputDim = inputs;
    model.numClasses = classes;
    model.format = kQ88;
    model.scalerRecorded = true;
    double scale = 1.0 / std::sqrt(static_cast<double>(inputs));
    for (int c = 0; c < classes; ++c) {
        std::vector<std::int32_t> w;
        for (std::size_t f = 0; f < inputs; ++f)
            w.push_back(kQ88.quantize(rng.gaussian(0.0, scale)));
        model.svmWeights.push_back(std::move(w));
        model.svmBiases.push_back(0);
    }
    std::vector<std::vector<double>> scores;
    for (std::size_t r = 0; r < std::min(calib.rows(), kCalibRows); ++r) {
        std::vector<std::int32_t> q = quantizeRow(calib, r);
        std::vector<double> row;
        for (int c = 0; c < classes; ++c) {
            double s = 0.0;
            for (std::size_t f = 0; f < inputs; ++f)
                s += q[f] * static_cast<double>(model.svmWeights[c][f]) /
                     256.0;
            row.push_back(s);
        }
        scores.push_back(std::move(row));
    }
    std::vector<double> offset = balanceOffsets(
        scores,
        std::vector<double>(classes, 1.0 / static_cast<double>(classes)));
    for (int c = 0; c < classes; ++c)
        model.svmBiases[c] = clampWord(offset[c]);
    model.validate();
    return model;
}

ir::ModelIr
makeKMeans(const std::string &name, std::size_t clusters,
           std::uint64_t seed, const math::Matrix &calib)
{
    // k-means++ seeding plus Lloyd rounds on the calibration rows, the
    // lowest-inertia of kRestarts tries: one try can merge two natural
    // clusters and hand a centroid twice its share.
    constexpr int kRestarts = 4;
    common::Rng rng(seed);
    std::size_t rows = std::min(calib.rows(), kCalibRows);
    std::size_t cols = calib.cols();
    using Centres = std::vector<std::vector<double>>;
    auto distance = [&](std::size_t r, const std::vector<double> &c) {
        double d = 0.0;
        for (std::size_t f = 0; f < cols; ++f)
            d += (calib(r, f) - c[f]) * (calib(r, f) - c[f]);
        return d;
    };
    auto nearest = [&](std::size_t r, const Centres &centres) {
        std::size_t best = 0;
        double best_d = distance(r, centres[0]);
        for (std::size_t c = 1; c < centres.size(); ++c) {
            double d = distance(r, centres[c]);
            if (d < best_d) {
                best_d = d;
                best = c;
            }
        }
        return std::make_pair(best, best_d);
    };

    Centres best_centres;
    double best_inertia = kInf;
    for (int restart = 0; restart < kRestarts; ++restart) {
        Centres centres;
        std::size_t first = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(rows) - 1));
        centres.emplace_back(calib.rowPtr(first), calib.rowPtr(first) + cols);
        std::vector<double> gap(rows, 0.0);
        while (centres.size() < clusters) {
            double total = 0.0;
            for (std::size_t r = 0; r < rows; ++r)
                total += gap[r] = nearest(r, centres).second;
            double pick = rng.uniform(0.0, total);
            std::size_t r = 0;
            for (; r + 1 < rows && pick > gap[r]; ++r)
                pick -= gap[r];
            centres.emplace_back(calib.rowPtr(r), calib.rowPtr(r) + cols);
        }
        for (int round = 0; round < 10; ++round) {
            Centres sum(clusters, std::vector<double>(cols, 0.0));
            std::vector<double> count(clusters, 0.0);
            for (std::size_t r = 0; r < rows; ++r) {
                std::size_t owner = nearest(r, centres).first;
                count[owner] += 1.0;
                for (std::size_t f = 0; f < cols; ++f)
                    sum[owner][f] += calib(r, f);
            }
            for (std::size_t c = 0; c < clusters; ++c)
                if (count[c] > 0)
                    for (std::size_t f = 0; f < cols; ++f)
                        centres[c][f] = sum[c][f] / count[c];
        }
        double inertia = 0.0;
        for (std::size_t r = 0; r < rows; ++r)
            inertia += nearest(r, centres).second;
        if (inertia < best_inertia) {
            best_inertia = inertia;
            best_centres = std::move(centres);
        }
    }

    ir::ModelIr model;
    model.kind = ir::ModelKind::kKMeans;
    model.name = name;
    model.inputDim = cols;
    model.numClasses = static_cast<int>(clusters);
    model.format = kQ88;
    model.scalerRecorded = true;
    for (const auto &c : best_centres)
        model.centroids.push_back(kQ88.quantizeVector(c));
    model.validate();
    return model;
}

ir::ModelIr
makeTree(const std::string &name, std::size_t depth, int classes,
         std::uint64_t seed, const math::Matrix &calib)
{
    common::Rng rng(seed);
    ir::ModelIr model;
    model.kind = ir::ModelKind::kDecisionTree;
    model.name = name;
    model.inputDim = calib.cols();
    model.numClasses = classes;
    model.format = kQ88;
    model.scalerRecorded = true;
    model.treeDepth = depth;

    std::vector<std::vector<std::int32_t>> q;
    for (std::size_t r = 0; r < calib.rows(); ++r)
        q.push_back(quantizeRow(calib, r));
    int leaves = 0;
    std::function<int(std::size_t, std::vector<std::size_t>)> build =
        [&](std::size_t level, std::vector<std::size_t> rows) -> int {
        int index = static_cast<int>(model.treeNodes.size());
        model.treeNodes.emplace_back();
        if (level == depth) {
            model.treeNodes[static_cast<std::size_t>(index)].classLabel =
                leaves++ % classes;
            return index;
        }
        std::size_t feature = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(calib.cols()) - 1));
        std::vector<std::int32_t> values;
        for (std::size_t r : rows)
            values.push_back(q[r][feature]);
        std::int32_t threshold = 0;
        if (!values.empty()) {
            std::nth_element(values.begin(),
                             values.begin() +
                                 static_cast<std::ptrdiff_t>(values.size() / 2),
                             values.end());
            threshold = values[values.size() / 2];
        }
        std::vector<std::size_t> left_rows, right_rows;
        for (std::size_t r : rows)
            (q[r][feature] <= threshold ? left_rows : right_rows).push_back(r);
        int left = build(level + 1, std::move(left_rows));
        int right = build(level + 1, std::move(right_rows));
        ir::IrTreeNode &node = model.treeNodes[static_cast<std::size_t>(index)];
        node.isLeaf = false;
        node.feature = feature;
        node.threshold = threshold;
        node.left = left;
        node.right = right;
        return index;
    };
    std::vector<std::size_t> all(calib.rows());
    std::iota(all.begin(), all.end(), 0);
    build(0, std::move(all));
    model.validate();
    return model;
}

std::vector<int>
scalarLabels(const ir::ModelIr &model, const math::Matrix &x)
{
    ir::ExecutablePlan plan = ir::ExecutablePlan::compile(model);
    plan.forceKernelTarget(kernels::KernelTarget::kScalar);
    return plan.run(x);
}

std::vector<double>
classShares(const std::vector<int> &labels, int classes)
{
    std::vector<double> shares(static_cast<std::size_t>(classes), 0.0);
    for (int label : labels)
        shares[static_cast<std::size_t>(label)] += 1.0;
    for (double &s : shares)
        s /= static_cast<double>(labels.size());
    return shares;
}

void
requireNonDegenerate(const ir::ModelIr &model, const std::vector<int> &labels)
{
    double max_share = kMaxClassShareFactor / model.numClasses;
    std::vector<double> shares = classShares(labels, model.numClasses);
    double largest = *std::max_element(shares.begin(), shares.end());
    if (largest > max_share)
        throw std::runtime_error(
            "degenerate model '" + model.name + "': largest class takes " +
            std::to_string(largest) + " of verdicts (cap " +
            std::to_string(max_share) + ")");
}

double
opsPerRow(const ir::ModelIr &model)
{
    switch (model.kind) {
      case ir::ModelKind::kMlp: {
        double macs = 0.0;
        for (const auto &layer : model.layers)
            macs += static_cast<double>(layer.inputDim * layer.outputDim);
        return macs;
      }
      case ir::ModelKind::kSvm:
        return static_cast<double>(model.inputDim * model.svmWeights.size());
      case ir::ModelKind::kKMeans:
        return static_cast<double>(model.inputDim * model.centroids.size());
      case ir::ModelKind::kDecisionTree:
        return static_cast<double>(model.treeDepth);  // one compare/level.
    }
    return 0.0;
}

double
bytesPerRow(const ir::ModelIr &model)
{
    // Input row in int32 words plus every parameter word the row reads.
    double input = 4.0 * static_cast<double>(model.inputDim);
    switch (model.kind) {
      case ir::ModelKind::kMlp:
        return input + 4.0 * static_cast<double>(model.paramCount());
      case ir::ModelKind::kSvm:
      case ir::ModelKind::kKMeans:
        return input + 4.0 * opsPerRow(model);
      case ir::ModelKind::kDecisionTree:
        return input + 16.0 * static_cast<double>(model.treeDepth);
    }
    return input;
}

}  // namespace perfbench
