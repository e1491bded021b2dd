/**
 * @file
 * Workload description: a tensor-algebra operation as a set of named
 * iteration dimensions plus per-tensor index projections.
 *
 * This mirrors Timeloop's problem abstraction: an operation (e.g. the
 * 7-deep CNN loop nest of the paper's Fig. 1) is a dense iteration
 * space over dimensions (N, C, M, P, Q, R, S); each operand tensor
 * addresses a projection of that space. Tensor axes are linear
 * combinations of dimensions so strided/dilated convolution windows
 * (h = stride*p + dilation*r) are expressed directly and tile
 * footprints with halos fall out of the algebra.
 */

#ifndef RUBY_WORKLOAD_PROBLEM_HPP
#define RUBY_WORKLOAD_PROBLEM_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ruby
{

/** Index of an iteration dimension within a Problem. */
using DimId = int;

/** One term of a tensor-axis projection: coef * index(dim). */
struct AxisTerm
{
    DimId dim;
    std::uint64_t coef;
};

/** A tensor axis as a linear combination of iteration dimensions. */
struct TensorAxis
{
    std::vector<AxisTerm> terms;
};

/**
 * An operand or result tensor: a name, its axes, and whether it is the
 * operation's output (outputs are read-modify-written while reduction
 * dimensions accumulate).
 */
struct TensorSpec
{
    std::string name;
    std::vector<TensorAxis> axes;
    bool isOutput = false;
};

/**
 * A tensor-algebra operation: iteration dimensions and tensors.
 *
 * The iteration space is the full cross product of the dimensions;
 * one multiply-accumulate executes per point.
 */
class Problem
{
  public:
    /**
     * Build a problem.
     *
     * @param name      Human-readable workload name.
     * @param dim_names One name per iteration dimension.
     * @param dim_sizes Size (loop bound) of each dimension; >= 1.
     * @param tensors   Operand/result tensors; exactly one must have
     *                  isOutput set.
     */
    Problem(std::string name, std::vector<std::string> dim_names,
            std::vector<std::uint64_t> dim_sizes,
            std::vector<TensorSpec> tensors);

    /** Workload name. */
    const std::string &name() const { return name_; }

    /** Number of iteration dimensions. */
    int numDims() const { return static_cast<int>(dim_sizes_.size()); }

    /** Number of tensors (operands + output). */
    int numTensors() const { return static_cast<int>(tensors_.size()); }

    /** Size of dimension d. */
    std::uint64_t dimSize(DimId d) const;

    /** All dimension sizes. */
    const std::vector<std::uint64_t> &dimSizes() const
    {
        return dim_sizes_;
    }

    /** Name of dimension d. */
    const std::string &dimName(DimId d) const;

    /** Look up a dimension by name; throws if absent. */
    DimId dimByName(const std::string &name) const;

    /** Tensor t's specification. */
    const TensorSpec &tensor(int t) const;

    /** Index of the (unique) output tensor. */
    int outputTensor() const { return output_tensor_; }

    /** True iff dimension d appears in any axis of tensor t. */
    bool relevant(int t, DimId d) const;

    /**
     * True iff d is a reduction dimension: it does not index the
     * output (e.g. C, R, S in a convolution).
     */
    bool isReductionDim(DimId d) const;

    /**
     * Number of elements tensor t touches when each dimension d spans
     * a contiguous extent extents[d]. Axis extent for a linear
     * projection is sum(coef * (extent - 1)) + 1, which yields the
     * sliding-window (halo) size for convolution inputs.
     */
    std::uint64_t tileVolume(int t,
                             std::span<const std::uint64_t> extents) const;

    /**
     * tileVolume over fractional (average) extents: used by the
     * access model, where the mean tile volume times the exact tile
     * count gives exact transferred-word totals for ragged tilings.
     */
    double tileVolume(int t, const std::vector<double> &extents) const;

    /** Full size of tensor t (tile volume of the whole space). */
    std::uint64_t tensorSize(int t) const;

    /** Total multiply-accumulates: product of all dimension sizes. */
    std::uint64_t totalOperations() const;

    /**
     * Return a copy with dimension d's size replaced (used by the
     * padding baseline, which rounds dimensions up).
     */
    Problem withDimSize(DimId d, std::uint64_t new_size) const;

  private:
    std::string name_;
    std::vector<std::string> dim_names_;
    std::vector<std::uint64_t> dim_sizes_;
    std::vector<TensorSpec> tensors_;
    int output_tensor_ = -1;
    /** relevancy_[t * numDims + d] */
    std::vector<char> relevancy_;

    void buildDerived();
};

/**
 * Rank-1 toy problem used throughout the paper's Section III: stream
 * D elements through the hierarchy (Z[i] = a * X[i]); one MAC per
 * element.
 */
Problem makeVector1D(std::uint64_t d, const std::string &name = "");

} // namespace ruby

#endif // RUBY_WORKLOAD_PROBLEM_HPP
