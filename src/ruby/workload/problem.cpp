#include "ruby/workload/problem.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"

namespace ruby
{

Problem::Problem(std::string name, std::vector<std::string> dim_names,
                 std::vector<std::uint64_t> dim_sizes,
                 std::vector<TensorSpec> tensors)
    : name_(std::move(name)), dim_names_(std::move(dim_names)),
      dim_sizes_(std::move(dim_sizes)), tensors_(std::move(tensors))
{
    RUBY_CHECK(!dim_sizes_.empty(), "problem needs >= 1 dimension");
    RUBY_CHECK(dim_names_.size() == dim_sizes_.size(),
               "dimension name/size count mismatch");
    RUBY_CHECK(!tensors_.empty(), "problem needs >= 1 tensor");
    for (std::size_t d = 0; d < dim_sizes_.size(); ++d)
        RUBY_CHECK(dim_sizes_[d] >= 1, "dimension ", dim_names_[d],
                   " must have size >= 1");
    buildDerived();
}

void
Problem::buildDerived()
{
    const int nd = numDims();
    relevancy_.assign(tensors_.size() * static_cast<std::size_t>(nd), 0);
    for (std::size_t t = 0; t < tensors_.size(); ++t) {
        const auto &spec = tensors_[t];
        if (spec.isOutput) {
            RUBY_CHECK(output_tensor_ < 0,
                       "problem must have exactly one output tensor");
            output_tensor_ = static_cast<int>(t);
        }
        for (const auto &axis : spec.axes) {
            RUBY_CHECK(!axis.terms.empty(),
                       "tensor ", spec.name, " has an empty axis");
            for (const auto &term : axis.terms) {
                RUBY_CHECK(term.dim >= 0 && term.dim < nd,
                           "tensor ", spec.name,
                           " references invalid dimension ", term.dim);
                RUBY_CHECK(term.coef >= 1, "axis coefficient must be >= 1");
                relevancy_[t * static_cast<std::size_t>(nd) +
                           static_cast<std::size_t>(term.dim)] = 1;
            }
        }
    }
    RUBY_CHECK(output_tensor_ >= 0, "problem has no output tensor");
}

std::uint64_t
Problem::dimSize(DimId d) const
{
    RUBY_ASSERT(d >= 0 && d < numDims());
    return dim_sizes_[static_cast<std::size_t>(d)];
}

const std::string &
Problem::dimName(DimId d) const
{
    RUBY_ASSERT(d >= 0 && d < numDims());
    return dim_names_[static_cast<std::size_t>(d)];
}

DimId
Problem::dimByName(const std::string &name) const
{
    auto it = std::find(dim_names_.begin(), dim_names_.end(), name);
    RUBY_CHECK(it != dim_names_.end(), "problem ", name_,
               " has no dimension named ", name);
    return static_cast<DimId>(it - dim_names_.begin());
}

const TensorSpec &
Problem::tensor(int t) const
{
    RUBY_ASSERT(t >= 0 && t < numTensors());
    return tensors_[static_cast<std::size_t>(t)];
}

bool
Problem::relevant(int t, DimId d) const
{
    RUBY_ASSERT(t >= 0 && t < numTensors() && d >= 0 && d < numDims());
    return relevancy_[static_cast<std::size_t>(t) *
                          static_cast<std::size_t>(numDims()) +
                      static_cast<std::size_t>(d)] != 0;
}

bool
Problem::isReductionDim(DimId d) const
{
    return !relevant(output_tensor_, d);
}

std::uint64_t
Problem::tileVolume(int t, std::span<const std::uint64_t> extents) const
{
    RUBY_ASSERT(extents.size() == dim_sizes_.size());
    const auto &spec = tensor(t);
    std::uint64_t volume = 1;
    for (const auto &axis : spec.axes) {
        std::uint64_t extent = 1;
        for (const auto &term : axis.terms) {
            const std::uint64_t e =
                extents[static_cast<std::size_t>(term.dim)];
            RUBY_ASSERT(e >= 1);
            extent += term.coef * (e - 1);
        }
        volume *= extent;
    }
    return volume;
}

double
Problem::tileVolume(int t, const std::vector<double> &extents) const
{
    RUBY_ASSERT(extents.size() == dim_sizes_.size());
    const auto &spec = tensor(t);
    double volume = 1.0;
    for (const auto &axis : spec.axes) {
        double extent = 1.0;
        for (const auto &term : axis.terms) {
            const double e = extents[static_cast<std::size_t>(term.dim)];
            RUBY_ASSERT(e >= 1.0);
            extent += static_cast<double>(term.coef) * (e - 1.0);
        }
        volume *= extent;
    }
    return volume;
}

std::uint64_t
Problem::tensorSize(int t) const
{
    return tileVolume(t, dim_sizes_);
}

std::uint64_t
Problem::totalOperations() const
{
    std::uint64_t ops = 1;
    for (auto s : dim_sizes_)
        ops *= s;
    return ops;
}

Problem
Problem::withDimSize(DimId d, std::uint64_t new_size) const
{
    RUBY_ASSERT(d >= 0 && d < numDims());
    RUBY_CHECK(new_size >= 1, "dimension size must be >= 1");
    auto sizes = dim_sizes_;
    sizes[static_cast<std::size_t>(d)] = new_size;
    return Problem(name_, dim_names_, std::move(sizes), tensors_);
}

Problem
makeVector1D(std::uint64_t d, const std::string &name)
{
    TensorSpec x{"X", {TensorAxis{{{0, 1}}}}, false};
    TensorSpec z{"Z", {TensorAxis{{{0, 1}}}}, true};
    return Problem(name.empty() ? "vector-" + std::to_string(d) : name,
                   {"I"}, {d}, {x, z});
}

} // namespace ruby
