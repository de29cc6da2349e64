#include "core/lcmm.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/scope.hpp"
#include "resil/fault.hpp"
#include "sim/timeline.hpp"
#include "util/logging.hpp"

namespace lcmm::core {

namespace {

/// Grants consumers whose entire value sits on chip a free on-chip read:
/// if every producer slice of a value has its output entity on chip (the
/// buffers persist to the value's last consumer by construction), the data
/// never needs to be re-fetched from DRAM.
void propagate_output_residency(const graph::ComputationGraph& graph,
                                OnChipState& state) {
  for (graph::ValueId vid : graph.live_values()) {
    const graph::Value& v = graph.value(vid);
    if (v.producers.empty()) continue;
    const bool all_on = std::all_of(
        v.producers.begin(), v.producers.end(), [&](graph::LayerId p) {
          return state.is_on({p, TensorSource::kOutput});
        });
    if (!all_on) continue;
    for (graph::LayerId c : v.consumers) {
      const graph::Layer& consumer = graph.layer(c);
      if (consumer.input == vid) state.set({c, TensorSource::kInput}, true);
      if (consumer.residual == vid) state.set({c, TensorSource::kResidual}, true);
    }
  }
}

/// `model`'s design with every tensor off chip: its Eq. 1 latency, the
/// memory-bound conv layers POL counts, and its tile buffers
/// `tile_buffers`.
AllocationPlan uniform_plan(const hw::PerfModel& model,
                            const hw::TileBufferBytes& tile_buffers) {
  const graph::ComputationGraph& graph = model.graph();
  AllocationPlan plan;
  plan.design = model.design();
  plan.state = OnChipState(graph.num_layers());
  plan.umm_latency_s = model.umm_total_latency();
  plan.est_latency_s = plan.umm_latency_s;
  for (const graph::Layer& layer : graph.layers()) {
    if (layer.is_conv() && model.timing(layer.id).memory_bound()) {
      ++plan.num_memory_bound_conv;
    }
  }
  plan.tile_buffers = tile_buffers;
  return plan;
}

}  // namespace

std::vector<bool> AllocationPlan::resident_weight_mask(
    std::size_t num_layers) const {
  std::vector<bool> mask(num_layers, false);
  for (graph::LayerId id : resident_weights) {
    if (id >= 0 && static_cast<std::size_t>(id) < num_layers) {
      mask[static_cast<std::size_t>(id)] = true;
    }
  }
  return mask;
}

double AllocationPlan::sram_utilization() const {
  const double used = static_cast<double>(bram_used) * mem::SramPools::kBram36Bytes +
                      static_cast<double>(uram_used) * mem::SramPools::kUramBytes;
  const double total =
      static_cast<double>(bram_total) * mem::SramPools::kBram36Bytes +
      static_cast<double>(uram_total) * mem::SramPools::kUramBytes;
  return total > 0 ? used / total : 0.0;
}

LcmmCompiler::LcmmCompiler(hw::FpgaDevice device, hw::Precision precision,
                           LcmmOptions options)
    : device_(std::move(device)), precision_(precision),
      options_(std::move(options)) {
  device_.validate();
  if (options_.sram_capacity_fraction <= 0 || options_.sram_capacity_fraction > 1) {
    throw resil::OptionError(resil::Code::kBadOptions, "core.options",
                             "LcmmOptions: bad sram_capacity_fraction");
  }
  if (options_.alloc.granularity_bytes <= 0) {
    throw resil::OptionError(resil::Code::kBadOptions, "core.options",
                             "LcmmOptions: alloc.granularity_bytes must be > 0");
  }
}

void LcmmCompiler::place_physical(AllocationPlan& plan,
                                  const graph::ComputationGraph& graph) const {
  LCMM_SPAN("place");
  resil::fault::hit("pass.place");
  mem::SramPools pools(device_.bram36_total, device_.uram_total);
  // Tile buffers live in BRAM (they need banked narrow ports).
  for (std::int64_t bytes :
       {plan.tile_buffers.input, plan.tile_buffers.weight, plan.tile_buffers.output}) {
    if (bytes <= 0) continue;
    if (!pools.allocate(bytes, mem::SramPool::kBram)) {
      throw resil::CompileError(resil::Code::kTileBuffersDontFit, "pass.place",
                                "tile buffers do not fit on the device",
                                graph.name());
    }
  }
  // Tensor buffers prefer URAM; largest first to reduce fragmentation
  // surprises at the block granularity.
  std::vector<std::size_t> order;
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    if (plan.buffer_on_chip[b]) order.push_back(b);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return plan.buffers[a].bytes > plan.buffers[b].bytes;
  });
  for (std::size_t b : order) {
    auto alloc = pools.allocate(plan.buffers[b].bytes, mem::SramPool::kUram);
    if (!alloc) {
      // Quantization edge: demote the buffer and its tensors.
      LCMM_WARN() << "demoting buffer " << plan.buffers[b].id
                  << " (placement failed)";
      LCMM_COUNT("demoted", 1);
      LCMM_DECIDE("vbuf#" + std::to_string(plan.buffers[b].id),
                  plan.buffers[b].bytes, false, "sram-placement-failed");
      plan.buffer_on_chip[b] = false;
      for (std::size_t e : plan.buffers[b].members) {
        plan.state.set(plan.entities[e].key, false);
      }
      continue;
    }
    LCMM_COUNT("placed", 1);
    plan.physical.push_back(PhysicalBuffer{plan.buffers[b], *alloc});
    plan.tensor_buffer_bytes += plan.buffers[b].bytes;
  }
  // Residency promotion: weights in single-member buffers are already
  // persistent; for window-shared weights, buy exclusive buffers with the
  // leftover URAM so they stop paying a per-inference prefetch.
  if (options_.residency_promotion) {
    std::vector<std::pair<std::int64_t, graph::LayerId>> shared_weights;
    for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
      if (!plan.buffer_on_chip[b]) continue;
      const bool exclusive = plan.buffers[b].members.size() == 1;
      for (std::size_t e : plan.buffers[b].members) {
        const TensorEntity& entity = plan.entities[e];
        if (entity.key.source != TensorSource::kWeight) continue;
        if (exclusive) {
          plan.resident_weights.push_back(entity.key.layer);
        } else {
          shared_weights.emplace_back(entity.bytes, entity.key.layer);
        }
      }
    }
    std::stable_sort(shared_weights.begin(), shared_weights.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [bytes, layer] : shared_weights) {
      // Promotion is URAM-only and keeps the configured routing margin.
      const int need = mem::SramPools::blocks_needed(bytes, mem::SramPool::kUram);
      const int margin = static_cast<int>(
          (1.0 - options_.sram_capacity_fraction) * pools.uram_total());
      if (pools.uram_used() + need > pools.uram_total() - margin) {
        LCMM_DECIDE(tensor_name(graph, {layer, TensorSource::kWeight}), bytes,
                    false, "uram-margin");
        continue;
      }
      LCMM_COUNT("promoted_weights", 1);
      LCMM_DECIDE(tensor_name(graph, {layer, TensorSource::kWeight}), bytes,
                  true, "residency-promotion");
      plan.physical.push_back(
          PhysicalBuffer{VirtualBuffer{-1, bytes, {}},
                         pools.allocate(bytes, mem::SramPool::kUram).value()});
      plan.tensor_buffer_bytes += bytes;
      plan.resident_weights.push_back(layer);
    }
  }
  plan.bram_used = pools.bram_used();
  plan.uram_used = pools.uram_used();
  plan.bram_total = pools.bram_total();
  plan.uram_total = pools.uram_total();
}

AllocationPlan LcmmCompiler::allocate(
    const hw::PerfModel& model, const hw::TileBufferBytes& tile_buffers) const {
  LCMM_SPAN("allocate");
  const graph::ComputationGraph& graph = model.graph();
  LatencyTables tables(model);
  AllocationPlan plan = uniform_plan(model, tile_buffers);

  // Passes 2+3: entities. A disabled pass (a Fig. 8 ablation) never hits
  // its fault site.
  std::vector<TensorEntity> entities;
  if (options_.feature_reuse) {
    resil::fault::hit("pass.liveness");
    entities = build_feature_entities(model, options_.liveness);
  }
  if (options_.weight_prefetch) {
    resil::fault::hit("pass.prefetch");
    plan.prefetch = build_prefetch_schedule(model, options_.liveness);
    std::vector<TensorEntity> weights =
        build_weight_entities(model, plan.prefetch);
    entities.insert(entities.end(), std::make_move_iterator(weights.begin()),
                    std::make_move_iterator(weights.end()));
  }

  // Capacity: whatever the tile buffers leave, with a routing margin.
  const std::int64_t free_bytes =
      device_.sram_bytes_total() - plan.tile_buffers.total();
  const std::int64_t capacity = static_cast<std::int64_t>(
      static_cast<double>(std::max<std::int64_t>(0, free_bytes)) *
      options_.sram_capacity_fraction);
  LCMM_GAUGE("capacity_bytes", static_cast<double>(capacity));

  InterferenceGraph ig(std::move(entities));
  resil::fault::hit("pass.coloring");
  resil::fault::hit("pass.dnnk");
  if (options_.buffer_splitting) resil::fault::hit("pass.splitting");
  // Without splitting, the allocation is the splitting pass's first round.
  const SplitOptions split = options_.buffer_splitting
                                 ? options_.split
                                 : SplitOptions{.max_iterations = 0};
  SplitOutcome outcome =
      split_and_reallocate(ig, tables, capacity, options_.alloc, split);

  plan.entities = ig.entities();
  plan.buffers = std::move(outcome.buffers);
  plan.buffer_on_chip = std::move(outcome.allocation.buffer_on_chip);
  plan.state = std::move(outcome.allocation.state);
  LCMM_COUNT("entities", static_cast<std::int64_t>(plan.entities.size()));
  LCMM_COUNT("buffers", static_cast<std::int64_t>(plan.buffers.size()));
  LCMM_COUNT("on_chip_buffers",
             static_cast<std::int64_t>(std::count(
                 plan.buffer_on_chip.begin(), plan.buffer_on_chip.end(), true)));

  place_physical(plan, graph);
  propagate_output_residency(graph, plan.state);
  plan.est_latency_s = tables.total_latency(plan.state);

  for (const graph::Layer& layer : graph.layers()) {
    if (layer.is_conv() && model.timing(layer.id).memory_bound() &&
        plan.state.layer_mask(layer.id) != 0) {
      ++plan.num_benefiting_conv;
    }
  }
  return plan;
}

AllocationPlan LcmmCompiler::compile_with_design(
    const graph::ComputationGraph& graph,
    const hw::AcceleratorDesign& design) const {
  // Caller-fixed designs bypass the UMM floor (the floor would need its
  // own DSE); typed errors propagate.
  resil::fault::Scope fault_scope;
  const hw::PerfModel model(graph, design);
  AllocationPlan plan = allocate(
      model,
      hw::tile_buffer_bytes(graph, design.array, design.tile, precision_));
  sim::refine_against_stalls(model, plan);
  return plan;
}

AllocationPlan LcmmCompiler::compile(const graph::ComputationGraph& graph,
                                     AllocationPlan* umm_baseline,
                                     sim::SimResult* umm_sim,
                                     sim::SimResult* plan_sim) const {
  // One pipeline span and one fault budget per top-level compile, floor
  // included.
  LCMM_SPAN("pipeline");
  resil::fault::Scope fault_scope;

  // The request's design space and simulated UMM baseline: built on first
  // use, then shared by the seed and refine DSE, the no-benefit fallback,
  // the floor and the caller. They live outside the pipeline, so a
  // pipeline that fails after building them leaves them to the floor. The
  // baseline is built only for one of its three consumers: the fallback,
  // the floor or the caller.
  std::optional<hw::DesignSpace> space;
  std::optional<AllocationPlan> baseline;
  sim::SimResult base_sim;
  const auto job_space = [&]() -> const hw::DesignSpace& {
    if (!space) {
      space.emplace(hw::Dse(device_, precision_).space(graph));
    }
    return *space;
  };
  const auto umm = [&]() -> const AllocationPlan& {
    if (!baseline) baseline.emplace(compile_umm(graph, &job_space(), &base_sim));
    return *baseline;
  };
  const bool caller_wants_umm = umm_baseline != nullptr || umm_sim != nullptr;
  sim::SimResult shipped_sim;
  AllocationPlan plan;
  try {
    plan = compile_lcmm(graph, job_space(), shipped_sim);
    if (options_.allow_fallback_to_umm || caller_wants_umm) {
      // No-benefit fallback: LCMM designs pay a clock penalty for heavy
      // URAM use. If the allocation gains do not cover it (compute-bound
      // network), ship the uniform design unchanged — a real toolflow
      // would too. A UMM plan simulates to its Eq. 1 estimate exactly, so
      // both sides of the comparison are simulated latencies.
      const AllocationPlan& base = umm();
      if (options_.allow_fallback_to_umm &&
          base.est_latency_s < plan.est_latency_s) {
        LCMM_INFO() << "LCMM(" << graph.name()
                    << "): allocation gains below the URAM clock penalty; "
                       "keeping the uniform design";
        LCMM_COUNT("fallback_to_umm", 1);
        LCMM_DECIDE(graph.name(), 0, false, "umm-fallback");
        plan = base;
        shipped_sim = base_sim;
        plan.is_umm = false;
        plan.rung = resil::Rung::kFullLcmm;  // chosen on merit, not a failure
      } else {
        LCMM_INFO() << "LCMM(" << graph.name() << "): "
                    << base.est_latency_s * 1e3 << " ms (UMM) -> "
                    << plan.est_latency_s * 1e3 << " ms, POL "
                    << plan.pol() * 100 << "%";
      }
    } else {
      LCMM_INFO() << "LCMM(" << graph.name() << "): "
                  << plan.est_latency_s * 1e3 << " ms, POL "
                  << plan.pol() * 100 << "%";
    }
  } catch (const resil::OptionError&) {
    throw;  // caller contract violations never reach the floor
  } catch (const std::exception& e) {
    if (options_.strict) throw;
    const resil::ErrorInfo info = resil::describe(e);
    const std::string reason =
        resil::code_id(info.code) +
        (info.pass.empty() ? std::string() : "@" + info.pass);
    LCMM_WARN() << "LCMM(" << graph.name() << "): failed with " << reason
                << ": " << info.message << "; shipping the UMM baseline";
    LCMM_DECIDE("ladder", 0, false, "full-lcmm:" + reason);
    // The floor: a semantically valid UMM plan. If even this throws, the
    // error propagates — a plan degrades no further than UMM.
    plan = umm();
    shipped_sim = base_sim;
    plan.is_umm = false;  // mirrors the no-benefit fallback convention
    plan.rung = resil::Rung::kUmm;
    plan.degrade_reason = reason;
    LCMM_COUNT("ladder_degraded", 1);
  }
  LCMM_DECIDE("ladder", 0, true, resil::rung_name(plan.rung));
  if (umm_baseline) *umm_baseline = umm();
  if (umm_sim) *umm_sim = base_sim;
  if (plan_sim) *plan_sim = std::move(shipped_sim);
  return plan;
}

AllocationPlan LcmmCompiler::compile_lcmm(const graph::ComputationGraph& graph,
                                          const hw::DesignSpace& space,
                                          sim::SimResult& refined_sim) const {
  // LCMM designs lean on URAM, so every LCMM objective runs at the
  // heavy-URAM clock. Seed: best design assuming uniform management.
  const hw::DseResult seed = space.argmin(/*heavy_uram_use=*/true);
  LCMM_COUNT("dse_rounds", 1);
  hw::PerfModel model(graph, seed.design, space.classes());
  AllocationPlan plan = allocate(model, seed.tile_buffers);

  // Refine step: re-optimize the design under the allocation's on-chip
  // state; keep whichever (design, allocation) pair estimates faster.
  const hw::DseResult refined =
      space.argmin(/*heavy_uram_use=*/true, plan.state.masks());
  LCMM_COUNT("dse_rounds", 1);
  if (refined.design.tile == plan.design.tile &&
      refined.design.array == plan.design.array) {
    LCMM_COUNT("dse_converged", 1);
  } else {
    hw::PerfModel refined_model(graph, refined.design, space.classes());
    AllocationPlan refined_plan = allocate(refined_model, refined.tile_buffers);
    if (refined_plan.est_latency_s < plan.est_latency_s) {
      LCMM_COUNT("dse_refinements_kept", 1);
      plan = std::move(refined_plan);
      model = std::move(refined_model);
    }
  }
  // Demote the weights whose prefetch stalls cost more than they save;
  // est_latency_s becomes the simulated latency the plan ships with.
  refined_sim = sim::refine_against_stalls(model, plan);
  return plan;
}

AllocationPlan LcmmCompiler::compile_umm(const graph::ComputationGraph& graph) const {
  return compile_umm(graph, nullptr, nullptr);
}

AllocationPlan LcmmCompiler::compile_umm(const graph::ComputationGraph& graph,
                                         const hw::DesignSpace* space,
                                         sim::SimResult* sim) const {
  LCMM_SPAN("umm_baseline");
  // Inside compile() this scope nests, so the floor spends the compile's
  // fault budget.
  resil::fault::Scope fault_scope;
  std::optional<hw::DesignSpace> own;
  if (space == nullptr) {
    own.emplace(hw::Dse(device_, precision_).space(graph));
  }
  const hw::DesignSpace& umm_space = own ? *own : *space;
  const hw::DseResult seed = umm_space.argmin(/*heavy_uram_use=*/false);
  const hw::PerfModel model(graph, seed.design, umm_space.classes());
  AllocationPlan plan = uniform_plan(model, seed.tile_buffers);
  plan.is_umm = true;
  plan.rung = resil::Rung::kUmm;
  place_physical(plan, graph);
  if (sim) *sim = sim::simulate(model, plan);
  return plan;
}

}  // namespace lcmm::core
