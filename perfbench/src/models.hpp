/**
 * @file
 * The benchmark's own models and inputs.
 *
 * Every parameter is drawn inside the range the workload's features
 * actually span (Q8.8 words of standardized or mixture-drawn rows), and
 * class outputs are balanced on the workload's inputs. A model whose
 * largest class still takes more than kMaxClassShareFactor / classes
 * of its verdicts fails set-up: a degenerate model makes every branch
 * predictable and flatters the kernels it runs on.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/model_ir.hpp"
#include "math/matrix.hpp"

namespace perfbench {

namespace ir = homunculus::ir;
namespace math = homunculus::math;

/** A model may give its largest class at most this many times its
 *  fair share (1 / classes) of the verdicts on its workload inputs. */
constexpr double kMaxClassShareFactor = 2.5;

/** Rows the bias balancing looks at (the degeneracy check sees all). */
constexpr std::size_t kCalibRows = 4096;

/**
 * Rows drawn from a mixture of @p clusters Gaussian blobs in @p cols
 * dimensions (centres in [-2, 2], unit spread), so trees and centroids
 * have real structure to split on.
 */
math::Matrix mixtureRows(std::size_t rows, std::size_t cols,
                         std::size_t clusters, std::uint64_t seed);

/**
 * Q8.8 MLP with the given layer widths (dims[0] inputs, dims.back()
 * classes), ReLU hidden layers, He-scaled weights. Output biases are
 * tuned on the first kCalibRows rows of @p calib so the verdict shares
 * approach @p shares (uniform when empty).
 */
ir::ModelIr makeMlp(const std::string &name,
                    const std::vector<std::size_t> &dims, std::uint64_t seed,
                    const math::Matrix &calib,
                    std::vector<double> shares = {});

/** Linear Q8.8 SVM (one weight row per class), biases balanced on the
 *  first kCalibRows rows of @p calib. */
ir::ModelIr makeSvm(const std::string &name, std::size_t inputs,
                    int classes, std::uint64_t seed,
                    const math::Matrix &calib);

/** KMeans whose centroids come from k-means++ seeding and Lloyd rounds
 *  over the first kCalibRows rows of @p calib (best of a few tries). */
ir::ModelIr makeKMeans(const std::string &name, std::size_t clusters,
                       std::uint64_t seed, const math::Matrix &calib);

/** Complete tree of @p depth; each split is the median of a random
 *  feature over the @p calib rows reaching it, leaves cycle through
 *  the classes. */
ir::ModelIr makeTree(const std::string &name, std::size_t depth,
                     int classes, std::uint64_t seed,
                     const math::Matrix &calib);

/** Labels of a scalar-pinned, single-thread plan of @p model on @p x:
 *  the reference the workloads check their outputs against. */
std::vector<int> scalarLabels(const ir::ModelIr &model,
                              const math::Matrix &x);

/** Share of @p labels that each of @p classes takes. */
std::vector<double> classShares(const std::vector<int> &labels, int classes);

/** Throws std::runtime_error when @p model's largest class takes more
 *  than kMaxClassShareFactor / classes of @p labels, its verdicts on the
 *  workload inputs. */
void requireNonDegenerate(const ir::ModelIr &model,
                          const std::vector<int> &labels);

/** Multiply-accumulates and parameter bytes one row costs the plan,
 *  computed from the model's shape (not measured). */
double opsPerRow(const ir::ModelIr &model);
double bytesPerRow(const ir::ModelIr &model);

}  // namespace perfbench
