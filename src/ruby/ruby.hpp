/**
 * @file
 * Umbrella header: the whole public API of the Ruby mapper library.
 */

#ifndef RUBY_RUBY_HPP
#define RUBY_RUBY_HPP

#include "ruby/analysis/dse.hpp"
#include "ruby/analysis/pareto.hpp"
#include "ruby/arch/arch_spec.hpp"
#include "ruby/arch/area_model.hpp"
#include "ruby/arch/energy_model.hpp"
#include "ruby/arch/presets.hpp"
#include "ruby/common/cancel.hpp"
#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/math_util.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/common/table.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/core/mapper.hpp"
#include "ruby/io/config_node.hpp"
#include "ruby/io/loaders.hpp"
#include "ruby/io/report.hpp"
#include "ruby/mapping/constraints.hpp"
#include "ruby/mapping/factor_chain.hpp"
#include "ruby/mapping/mapping.hpp"
#include "ruby/mapping/nest.hpp"
#include "ruby/mapspace/counting.hpp"
#include "ruby/mapspace/factor_space.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/mapspace/padding.hpp"
#include "ruby/mapspace/stats.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/model/latency.hpp"
#include "ruby/model/reference_sim.hpp"
#include "ruby/model/tile_analysis.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/local_search.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/problem.hpp"
#include "ruby/workload/suites/suites.hpp"

#endif // RUBY_RUBY_HPP
