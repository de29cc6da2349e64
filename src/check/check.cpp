#include "check/check.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dnnk.hpp"
#include "core/latency_tables.hpp"
#include "core/liveness.hpp"
#include "hw/tiling.hpp"
#include "obs/stats.hpp"

namespace lcmm::check {

namespace {

using core::AllocationPlan;
using core::TensorEntity;
using core::TensorSource;

std::string entity_label(const TensorEntity& e) {
  return e.name + " (layer " + std::to_string(e.key.layer) + " " +
         core::to_string(e.key.source) + ")";
}

DiagLocation entity_location(const CheckContext& ctx, const TensorEntity& e,
                             int buffer_id = -1) {
  DiagLocation loc;
  loc.layer = e.key.layer;
  if (e.key.layer >= 0 &&
      static_cast<std::size_t>(e.key.layer) < ctx.graph.num_layers()) {
    loc.layer_name = ctx.graph.layer(e.key.layer).name;
    loc.step = e.key.layer;
  }
  loc.tensor = e.name;
  loc.buffer_id = buffer_id;
  return loc;
}

DiagLocation layer_location(const CheckContext& ctx, graph::LayerId id) {
  DiagLocation loc;
  loc.layer = id;
  if (id >= 0 && static_cast<std::size_t>(id) < ctx.graph.num_layers()) {
    loc.layer_name = ctx.graph.layer(id).name;
    loc.step = id;
  }
  return loc;
}

/// A closed step interval; the checker's recomputed ground truth.
struct StepInterval {
  int def = core::kBeforeExecution;
  int last = 0;
  bool overlaps(const StepInterval& o) const {
    return std::max(def, o.def) <= std::min(last, o.last);
  }
};

/// Re-derives an entity's liveness interval. Features come from the graph
/// (the §3.1 def-use rules); weights keep their prefetch-window interval,
/// whose truthfulness the prefetch and race passes establish separately.
/// Returns false when the entity's source cannot exist on its layer.
bool rederive_interval(const CheckContext& ctx, const TensorEntity& e,
                       StepInterval& out) {
  if (e.key.layer < 0 ||
      static_cast<std::size_t>(e.key.layer) >= ctx.graph.num_layers()) {
    return false;
  }
  const graph::Layer& layer = ctx.graph.layer(e.key.layer);
  const int step = layer.id;
  switch (e.key.source) {
    case TensorSource::kInput:
      out = {core::value_def_step(ctx.graph, layer.input), step};
      return true;
    case TensorSource::kResidual:
      if (!layer.has_residual()) return false;
      out = {core::value_def_step(ctx.graph, layer.residual), step};
      return true;
    case TensorSource::kOutput:
      out = {step, core::value_last_use_step(ctx.graph, layer.output)};
      return true;
    case TensorSource::kWeight:
      out = {e.def_step, e.last_use_step};
      return true;
  }
  return false;
}

/// Re-derives an entity's byte footprint from the graph shapes and the
/// design precision.
std::int64_t rederive_bytes(const CheckContext& ctx, const TensorEntity& e) {
  const graph::Layer& layer = ctx.graph.layer(e.key.layer);
  const int bpe = hw::bytes_per_elem(ctx.plan.design.precision);
  switch (e.key.source) {
    case TensorSource::kInput:
      return ctx.graph.value(layer.input).shape.elems() * bpe;
    case TensorSource::kResidual:
      return ctx.graph.value(layer.residual).shape.elems() * bpe;
    case TensorSource::kOutput:
      return ctx.graph.own_output_shape(layer.id).elems() * bpe;
    case TensorSource::kWeight:
      return ctx.graph.layer_weight_elems(layer.id) * bpe;
  }
  return 0;
}

/// The DNNK capacity budget R_sram, re-derived the way the compiler
/// derives it: SRAM left after the tile buffers, scaled by the fraction.
std::int64_t rederive_capacity(const CheckContext& ctx) {
  const hw::TileBufferBytes tiles =
      hw::tile_buffer_bytes(ctx.graph, ctx.plan.design.array,
                            ctx.plan.design.tile, ctx.plan.design.precision);
  const std::int64_t free_bytes =
      ctx.plan.design.device.sram_bytes_total() - tiles.total();
  return static_cast<std::int64_t>(
      static_cast<double>(std::max<std::int64_t>(0, free_bytes)) *
      ctx.options.sram_capacity_fraction);
}

// ---------------------------------------------------------------------------
// Pass: structure — the bookkeeping invariants every other pass relies on.
// ---------------------------------------------------------------------------
void pass_structure(const CheckContext& ctx, CheckReport& report) {
  const AllocationPlan& plan = ctx.plan;
  if (plan.state.num_layers() != ctx.graph.num_layers()) {
    report.add(Code::kPlanShapeMismatch,
               "state covers " + std::to_string(plan.state.num_layers()) +
                   " layers but the graph has " +
                   std::to_string(ctx.graph.num_layers()));
    return;  // nothing else is meaningful
  }
  if (plan.buffer_on_chip.size() != plan.buffers.size()) {
    report.add(Code::kBufferTableMismatch,
               "buffer_on_chip covers " +
                   std::to_string(plan.buffer_on_chip.size()) +
                   " buffers but the plan has " +
                   std::to_string(plan.buffers.size()));
    return;
  }

  std::vector<bool> owned(plan.entities.size(), false);
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    const core::VirtualBuffer& buf = plan.buffers[b];
    std::int64_t max_member = 0;
    for (std::size_t e : buf.members) {
      if (e >= plan.entities.size()) {
        DiagLocation loc;
        loc.buffer_id = buf.id;
        report.add(Code::kMemberOutOfRange,
                   "vbuf" + std::to_string(buf.id) + " references entity " +
                       std::to_string(e) + " out of range",
                   std::move(loc));
        continue;
      }
      const TensorEntity& entity = plan.entities[e];
      max_member = std::max(max_member, entity.bytes);
      if (owned[e]) {
        report.add(Code::kMultipleOwners,
                   entity_label(entity) + " belongs to several buffers",
                   entity_location(ctx, entity, buf.id));
      }
      owned[e] = true;
    }
    if (!buf.members.empty() && buf.bytes < max_member) {
      DiagLocation loc;
      loc.buffer_id = buf.id;
      report.add(Code::kCapacityBelowMember,
                 "vbuf" + std::to_string(buf.id) + " capacity " +
                     std::to_string(buf.bytes) + " below largest member " +
                     std::to_string(max_member),
                 std::move(loc));
    }
  }

  // A weight marked on-chip must have a granted buffer behind it (feature
  // reads may legitimately be granted by output-residency propagation).
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    if (plan.buffer_on_chip[b]) continue;
    for (std::size_t e : plan.buffers[b].members) {
      const TensorEntity& entity = plan.entities[e];
      if (entity.key.source == TensorSource::kWeight &&
          plan.state.is_on(entity.key)) {
        report.add(Code::kSpilledWeightOnChip,
                   entity_label(entity) +
                       " is on-chip but its buffer was spilled",
                   entity_location(ctx, entity, plan.buffers[b].id));
      }
    }
  }

  for (graph::LayerId id : plan.resident_weights) {
    if (id < 0 || static_cast<std::size_t>(id) >= ctx.graph.num_layers()) {
      report.add(Code::kResidentBadLayer,
                 "resident weight references bad layer " + std::to_string(id));
      continue;
    }
    if (!ctx.graph.layer(id).is_conv()) {
      report.add(Code::kResidentNonConv,
                 "resident weight on non-conv layer '" +
                     ctx.graph.layer(id).name + "'",
                 layer_location(ctx, id));
    }
    if (!plan.state.is_on({id, TensorSource::kWeight})) {
      report.add(Code::kResidentNotOnChip,
                 "resident weight of '" + ctx.graph.layer(id).name +
                     "' is not marked on-chip",
                 layer_location(ctx, id));
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: liveness — §3.1 soundness. Intervals are re-derived from the graph,
// then every shared buffer's members are proven pairwise disjoint.
// ---------------------------------------------------------------------------
void pass_liveness(const CheckContext& ctx, CheckReport& report) {
  const AllocationPlan& plan = ctx.plan;
  std::vector<StepInterval> derived(plan.entities.size());
  for (std::size_t i = 0; i < plan.entities.size(); ++i) {
    const TensorEntity& e = plan.entities[i];
    if (!rederive_interval(ctx, e, derived[i])) {
      report.add(Code::kLivenessIntervalMismatch,
                 entity_label(e) + " cannot exist on its layer",
                 entity_location(ctx, e));
      derived[i] = {e.def_step, e.last_use_step};
      continue;  // bytes are not derivable either
    }
    if (e.key.source != TensorSource::kWeight &&
        (derived[i].def != e.def_step || derived[i].last != e.last_use_step)) {
      report.add(Code::kLivenessIntervalMismatch,
                 entity_label(e) + " records lifespan [" +
                     std::to_string(e.def_step) + ", " +
                     std::to_string(e.last_use_step) +
                     "] but the graph derives [" +
                     std::to_string(derived[i].def) + ", " +
                     std::to_string(derived[i].last) + "]",
                 entity_location(ctx, e));
    }
    const std::int64_t bytes = rederive_bytes(ctx, e);
    if (bytes != e.bytes) {
      report.add(Code::kEntitySizeMismatch,
                 entity_label(e) + " records " + std::to_string(e.bytes) +
                     " bytes but the graph derives " + std::to_string(bytes),
                 entity_location(ctx, e));
    }
  }

  for (const core::VirtualBuffer& buf : plan.buffers) {
    for (std::size_t i = 0; i < buf.members.size(); ++i) {
      for (std::size_t j = i + 1; j < buf.members.size(); ++j) {
        const std::size_t a = buf.members[i];
        const std::size_t c = buf.members[j];
        if (!derived[a].overlaps(derived[c])) continue;
        report.add(Code::kLifespanOverlap,
                   "vbuf" + std::to_string(buf.id) + ": members " +
                       entity_label(plan.entities[a]) + " and " +
                       entity_label(plan.entities[c]) +
                       " have overlapping lifespans",
                   entity_location(ctx, plan.entities[a], buf.id));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: prefetch — §3.2. Every PDG edge must point backwards in the
// execution order (acyclicity) and its recorded window must equal the UMM
// execution time re-accumulated over the window's steps. On-chip weights
// whose window does not cover the load time T miss their deadline.
// ---------------------------------------------------------------------------
void pass_prefetch(const CheckContext& ctx, CheckReport& report) {
  for (const core::PrefetchEdge& edge : ctx.plan.prefetch.edges()) {
    if (edge.target < 0 ||
        static_cast<std::size_t>(edge.target) >= ctx.graph.num_layers() ||
        !ctx.graph.layer(edge.target).is_conv() ||
        ctx.graph.layer_weight_elems(edge.target) <= 0) {
      report.add(Code::kPrefetchBadTarget,
                 "prefetch edge targets layer " + std::to_string(edge.target) +
                     ", which is not a weighted convolution",
                 layer_location(ctx, edge.target));
      continue;
    }
    const int target_step = edge.target;
    if (edge.start_step != core::kBeforeExecution &&
        (edge.start_step < 0 || edge.start_step >= target_step)) {
      report.add(Code::kPdgCycle,
                 "prefetch edge for '" + ctx.graph.layer(edge.target).name +
                     "' starts at step " + std::to_string(edge.start_step) +
                     " which is not before its target step " +
                     std::to_string(target_step),
                 layer_location(ctx, edge.target));
      continue;
    }

    // Re-accumulate the backtrace window from the UMM step latencies.
    const int first =
        edge.start_step == core::kBeforeExecution ? 0 : edge.start_step;
    double window = 0.0;
    for (int s = first; s < target_step; ++s) {
      window += ctx.model.timing(s).umm_latency();
    }
    const double tol =
        ctx.options.latency_rel_tol * std::max(window, edge.window_seconds) +
        1e-15;
    if (std::abs(window - edge.window_seconds) > tol) {
      report.add(Code::kPrefetchWindowMismatch,
                 "prefetch edge for '" + ctx.graph.layer(edge.target).name +
                     "' records a window of " +
                     std::to_string(edge.window_seconds * 1e6) +
                     " us but the schedule provides " +
                     std::to_string(window * 1e6) + " us",
                 layer_location(ctx, edge.target));
    }
  }

  // Deadline feasibility for every weight the plan actually streams.
  for (const graph::Layer& layer : ctx.graph.layers()) {
    if (!ctx.plan.state.is_on({layer.id, TensorSource::kWeight})) continue;
    if (ctx.plan.weight_is_resident(layer.id)) continue;
    const core::PrefetchEdge* edge = ctx.plan.prefetch.edge_for(layer.id);
    const double load = edge ? edge->load_seconds : 0.0;
    const double window = edge ? edge->window_seconds : 0.0;
    if (!edge) {
      report.add(Code::kPrefetchDeadlineMissed,
                 "on-chip weight of '" + layer.name +
                     "' has no prefetch edge; its whole load stalls",
                 layer_location(ctx, layer.id));
    } else if (window < load) {
      report.add(Code::kPrefetchDeadlineMissed,
                 "prefetch window of '" + layer.name + "' covers " +
                     std::to_string(window * 1e6) + " us of the " +
                     std::to_string(load * 1e6) +
                     " us load; the remainder stalls",
                 layer_location(ctx, layer.id));
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: race — the memory-race detector. DMA weight loads are replayed
// against the simulated timeline; a DMA write into a shared buffer must
// never overlap a compute access (or another DMA write) of a co-resident
// tensor in wall-clock time. This catches double-buffer hazards that step
// bookkeeping alone can hide, e.g. a prefetch edge starting earlier than
// the window its weight entity claims.
// ---------------------------------------------------------------------------
void pass_race(const CheckContext& ctx, CheckReport& report) {
  if (ctx.sim == nullptr) return;
  const std::vector<sim::LayerExecution>& steps = ctx.sim->layers;
  if (steps.empty()) return;

  // When a step begins occupying the timeline (stall included: the stall IS
  // the tail of the DMA transfer, so the window opens before it).
  const auto step_begin = [&](int s) {
    const auto& e = steps[static_cast<std::size_t>(s)];
    return e.start_s - e.stall_s;
  };
  const auto step_end = [&](int s) {
    return steps[static_cast<std::size_t>(s)].end_s;
  };
  const int last_step = static_cast<int>(steps.size()) - 1;
  const auto clamp_step = [&](int s) { return std::clamp(s, 0, last_step); };

  struct Access {
    double lo = 0.0, hi = 0.0;
    bool dma = false;
    const TensorEntity* entity = nullptr;
  };

  for (std::size_t b = 0; b < ctx.plan.buffers.size(); ++b) {
    if (!ctx.plan.buffer_on_chip[b]) continue;
    const core::VirtualBuffer& buf = ctx.plan.buffers[b];

    std::vector<Access> accesses;
    for (std::size_t e : buf.members) {
      const TensorEntity& entity = ctx.plan.entities[e];
      if (entity.key.layer < 0 ||
          static_cast<std::size_t>(entity.key.layer) >=
              ctx.graph.num_layers()) {
        continue;  // reported by the liveness pass
      }
      if (entity.key.source == TensorSource::kWeight) {
        if (!ctx.plan.state.is_on(entity.key)) continue;  // demoted: no DMA
        if (ctx.plan.weight_is_resident(entity.key.layer)) continue;
        const int target = clamp_step(entity.key.layer);
        const core::PrefetchEdge* edge =
            ctx.plan.prefetch.edge_for(entity.key.layer);
        const int start = edge ? edge->start_step : core::kBeforeExecution;
        Access dma;
        dma.lo = start == core::kBeforeExecution ? 0.0
                                                 : step_begin(clamp_step(start));
        dma.hi = steps[static_cast<std::size_t>(target)].start_s;
        dma.dma = true;
        dma.entity = &entity;
        accesses.push_back(dma);
        // The compute read of the weight during its target layer.
        accesses.push_back(
            {steps[static_cast<std::size_t>(target)].start_s,
             steps[static_cast<std::size_t>(target)].end_s, false, &entity});
      } else {
        if (!ctx.plan.state.is_on(entity.key) &&
            entity.key.source != TensorSource::kOutput) {
          // Spilled feature read: streamed from DRAM, buffer unused.
          continue;
        }
        const int def = clamp_step(std::max(0, entity.def_step));
        const int last = clamp_step(entity.last_use_step);
        accesses.push_back({entity.def_step == core::kBeforeExecution
                                ? 0.0
                                : step_begin(def),
                            step_end(last), false, &entity});
      }
    }

    for (std::size_t i = 0; i < accesses.size(); ++i) {
      if (!accesses[i].dma) continue;
      for (std::size_t j = 0; j < accesses.size(); ++j) {
        if (i == j) continue;
        if (accesses[i].entity == accesses[j].entity) continue;
        if (accesses[i].dma && accesses[j].dma && j < i) continue;  // dedup
        const double lo = std::max(accesses[i].lo, accesses[j].lo);
        const double hi = std::min(accesses[i].hi, accesses[j].hi);
        if (hi - lo <= 1e-15) continue;
        const Code code =
            accesses[j].dma ? Code::kDmaDmaRace : Code::kDmaComputeRace;
        report.add(
            code,
            std::string(accesses[j].dma ? "DMA loads of "
                                        : "DMA load of ") +
                entity_label(*accesses[i].entity) +
                (accesses[j].dma ? " and " : " overlaps the live range of ") +
                entity_label(*accesses[j].entity) + " in vbuf" +
                std::to_string(buf.id) + " for " +
                std::to_string((hi - lo) * 1e6) + " us",
            entity_location(ctx, *accesses[i].entity, buf.id));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: capacity — §3.3 accounting. Pool totals, physical placements and
// the DNNK budget are re-derived; per-step live bytes prove no execution
// point oversubscribes the tensor-buffer capacity.
// ---------------------------------------------------------------------------
void pass_capacity(const CheckContext& ctx, CheckReport& report) {
  const AllocationPlan& plan = ctx.plan;
  const hw::FpgaDevice& device = plan.design.device;
  if (plan.bram_used > device.bram36_total) {
    report.add(Code::kBramOversubscribed,
               "BRAM overcommitted: " + std::to_string(plan.bram_used) +
                   " / " + std::to_string(device.bram36_total));
  }
  if (plan.uram_used > device.uram_total) {
    report.add(Code::kUramOversubscribed,
               "URAM overcommitted: " + std::to_string(plan.uram_used) +
                   " / " + std::to_string(device.uram_total));
  }

  std::int64_t placed = 0;
  for (const core::PhysicalBuffer& pb : plan.physical) {
    if (pb.sram.capacity_bytes < pb.buffer.bytes && pb.buffer.id >= 0) {
      DiagLocation loc;
      loc.buffer_id = pb.buffer.id;
      report.add(Code::kPlacementTooSmall,
                 "physical buffer for vbuf" + std::to_string(pb.buffer.id) +
                     " holds " + std::to_string(pb.sram.capacity_bytes) +
                     " bytes, below its virtual size " +
                     std::to_string(pb.buffer.bytes),
                 std::move(loc));
    }
    placed += pb.sram.blocks;
  }
  if (placed > plan.bram_used + plan.uram_used) {
    report.add(Code::kPoolBookkeepingMismatch,
               "physical placements sum to " + std::to_string(placed) +
                   " blocks but the plan records " +
                   std::to_string(plan.bram_used + plan.uram_used));
  }

  // DNNK budget: the granted virtual buffers, quantized the way the DP
  // quantizes them, must fit the re-derived R_sram.
  const std::int64_t budget = rederive_capacity(ctx);
  const std::int64_t granularity = ctx.options.alloc.granularity_bytes;
  std::int64_t granted = 0;
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    if (!plan.buffer_on_chip[b]) continue;
    granted +=
        core::quantized_units(plan.buffers[b].bytes, ctx.options.alloc) *
        granularity;
  }
  if (granted > budget) {
    report.add(Code::kDnnkCapacityExceeded,
               "on-chip buffers need " + std::to_string(granted) +
                   " bytes (quantized) but R_sram is " +
                   std::to_string(budget));
  }

  // Per-step accounting: what is actually live at each execution point.
  const int steps = static_cast<int>(ctx.graph.num_layers());
  std::vector<std::int64_t> live(static_cast<std::size_t>(steps), 0);
  for (std::size_t b = 0; b < plan.buffers.size(); ++b) {
    if (!plan.buffer_on_chip[b]) continue;
    const core::VirtualBuffer& buf = plan.buffers[b];
    int lo = steps, hi = -1;
    for (std::size_t e : buf.members) {
      StepInterval iv;
      if (!rederive_interval(ctx, plan.entities[e], iv)) continue;
      lo = std::min(lo, std::max(0, iv.def));
      hi = std::max(hi, iv.last);
    }
    const std::int64_t bytes =
        core::quantized_units(buf.bytes, ctx.options.alloc) * granularity;
    for (int s = std::max(0, lo); s <= std::min(hi, steps - 1); ++s) {
      live[static_cast<std::size_t>(s)] += bytes;
    }
  }
  int peak_step = -1;
  std::int64_t peak = 0;
  for (int s = 0; s < steps; ++s) {
    if (live[static_cast<std::size_t>(s)] > peak) {
      peak = live[static_cast<std::size_t>(s)];
      peak_step = s;
    }
  }
  if (peak > budget && peak_step >= 0) {
    report.add(Code::kStepCapacityExceeded,
               "live on-chip tensors need " + std::to_string(peak) +
                   " bytes at step " + std::to_string(peak_step) +
                   " but R_sram is " + std::to_string(budget),
               layer_location(ctx, peak_step));
  }
}

// ---------------------------------------------------------------------------
// Pass: dnnk — §3.3 value model consistency. The recorded latencies must
// agree with Eq. 1 re-evaluated from the performance model, and every
// granted tensor's pivot-compensated gain is reported when it is currently
// zero (informational: its pivot is still off-chip).
// ---------------------------------------------------------------------------
void pass_dnnk(const CheckContext& ctx, CheckReport& report) {
  const AllocationPlan& plan = ctx.plan;
  const double umm = ctx.model.umm_total_latency();
  const double tol_umm =
      ctx.options.latency_rel_tol * std::max(umm, plan.umm_latency_s) + 1e-15;
  if (std::abs(plan.umm_latency_s - umm) > tol_umm) {
    report.add(Code::kBaselineLatencyMismatch,
               "plan records a UMM baseline of " +
                   std::to_string(plan.umm_latency_s * 1e3) +
                   " ms but Eq. 1 derives " + std::to_string(umm * 1e3) +
                   " ms");
  }

  const double bound = ctx.tables.total_latency(plan.state);
  if (plan.est_latency_s < bound * (1.0 - ctx.options.latency_rel_tol)) {
    report.add(Code::kLatencyBelowBound,
               "plan estimates " + std::to_string(plan.est_latency_s * 1e3) +
                   " ms, below the Eq. 1 bound " + std::to_string(bound * 1e3) +
                   " ms of its own on-chip state");
  }

  for (const graph::Layer& layer : ctx.graph.layers()) {
    const std::uint8_t mask = plan.state.layer_mask(layer.id);
    if (mask == 0) continue;
    for (int s = 0; s < core::kNumSources; ++s) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << s);
      if (!(mask & bit)) continue;
      const double gain =
          ctx.tables.node_latency(layer.id,
                                  static_cast<std::uint8_t>(mask & ~bit)) -
          ctx.tables.node_latency(layer.id, mask);
      if (gain <= 0.0) {
        DiagLocation loc = layer_location(ctx, layer.id);
        loc.tensor = layer.name + "." +
                     core::to_string(static_cast<TensorSource>(s));
        report.add(Code::kZeroGainGrant,
                   "on-chip " + core::to_string(static_cast<TensorSource>(s)) +
                       " tensor of '" + layer.name +
                       "' currently reduces no latency (pivot off-chip)",
                   std::move(loc));
      }
    }
  }
}

constexpr CheckPass kPasses[] = {
    {"structure", "plan/graph bookkeeping invariants", pass_structure},
    {"liveness", "re-derived def-use intervals and buffer sharing (3.1)",
     pass_liveness},
    {"prefetch", "PDG acyclicity and backtrace-window feasibility (3.2)",
     pass_prefetch},
    {"race", "DMA/compute overlap on shared buffers (double buffering)",
     pass_race},
    {"capacity", "SRAM pools and the DNNK capacity budget (3.3)",
     pass_capacity},
    {"dnnk", "Eq. 1 consistency of the granted allocation state (3.3)",
     pass_dnnk},
};

/// Structure findings after which other passes would index out of bounds.
bool fatally_malformed(const CheckReport& report) {
  return report.has(Code::kPlanShapeMismatch) ||
         report.has(Code::kBufferTableMismatch) ||
         report.has(Code::kMemberOutOfRange);
}

/// Runs one pass under an obs span, counting its findings.
void run_pass(const CheckPass& pass, const CheckContext& ctx,
              CheckReport& report) {
  obs::CompileStats* sink = obs::current();
  const int span =
      sink ? sink->begin_span(std::string("check_") + pass.name) : -1;
  const std::size_t before = report.diagnostics().size();
  report.set_pass(pass.name);
  pass.run(ctx, report);
  if (sink) {
    std::int64_t errors = 0, warnings = 0, notes = 0;
    for (std::size_t i = before; i < report.diagnostics().size(); ++i) {
      switch (report.diagnostics()[i].severity) {
        case Severity::kError: ++errors; break;
        case Severity::kWarning: ++warnings; break;
        case Severity::kNote: ++notes; break;
      }
    }
    if (errors) sink->count("errors", errors);
    if (warnings) sink->count("warnings", warnings);
    if (notes) sink->count("notes", notes);
    sink->end_span(span);
  }
}

}  // namespace

std::span<const CheckPass> check_passes() { return kPasses; }

CheckReport run_checks(const graph::ComputationGraph& graph,
                       const core::AllocationPlan& plan,
                       const CheckOptions& options) {
  obs::ScopedSpan outer("check");
  CheckReport report;

  // The structure pass gates everything: a malformed plan cannot even be
  // indexed safely, let alone simulated.
  hw::PerfModel model(graph, plan.design);
  core::LatencyTables tables(model);
  CheckContext ctx{graph, plan, options, model, tables, nullptr};
  run_pass(kPasses[0], ctx, report);
  if (fatally_malformed(report)) return report;

  const sim::SimResult sim = sim::simulate(model, plan);
  ctx.sim = &sim;
  for (std::size_t p = 1; p < std::size(kPasses); ++p) {
    run_pass(kPasses[p], ctx, report);
  }
  return report;
}

}  // namespace lcmm::check
