// The Layer Conscious Memory Management driver (paper Fig. 4).
//
// Pipeline per compile():
//   1. DSE picks the accelerator design (PE array + uniform tiles).
//   2. Feature buffer reuse:   liveness -> interference -> coloring (§3.1).
//   3. Weight buffer prefetch: PDG backtrace -> weight entities     (§3.2).
//   4. DNNK knapsack allocation over the virtual buffers            (§3.3).
//   5. Buffer splitting when shared buffers misspill                (§3.4).
//   6. One refine DSE step re-optimizes tiles under the allocation's
//      on-chip state, and its design and allocation are kept only if they
//      estimate faster — with the bandwidth bottleneck gone, smaller tiles
//      win back the compute padding waste (§4.1's "reduction of actual
//      operations").
//   7. Physical placement into BRAM/URAM pools.
//   8. Stall refinement (sim::refine_against_stalls): demote the weights
//      whose unhidden prefetch makes their layer slower than under UMM.
//   9. No-benefit fallback: ship the UMM baseline if it simulates faster.
// compile() evaluates one design space per request, runs 1-8 on it (steps
// 1 and 6 are argmins over it), then 9, and returns the plan that ships.
// Each design gets one hw::PerfModel, built over the space's shape classes
// (one layer_cost per class) and read by its allocation and every round
// of 8, and takes its tile buffers from the space's menu filter; the UMM
// baseline gets one model and one simulation, which 9,
// the floor and compile()'s caller reuse. A failure of 1-9 ships the UMM
// baseline (resil::Rung::kUmm). compile_with_design() runs 2-5, 7 and 8.
//
// compile_umm() produces the uniform-memory-management baseline on the
// same machinery (empty allocation), so every comparison is apples to
// apples.
#pragma once

#include "core/prefetch.hpp"
#include "core/splitting.hpp"
#include "hw/dse.hpp"
#include "mem/sram.hpp"
#include "resil/error.hpp"

namespace lcmm::sim {
struct SimResult;
}  // namespace lcmm::sim

namespace lcmm::core {

struct LcmmOptions {
  bool feature_reuse = true;      // §3.1 pass (off for the Fig. 8(b) ablation)
  bool weight_prefetch = true;    // §3.2 pass (off for the Fig. 8(a) ablation)
  bool buffer_splitting = true;   // §3.4 pass
  /// Spend leftover URAM to make on-chip weights persistent across
  /// inferences (exclusive buffers instead of window-shared ones).
  bool residency_promotion = true;
  /// Ship the uniform design unchanged when the allocation gains do not
  /// cover the URAM clock penalty. Disable for pass-isolation ablations
  /// (Fig. 8) where the pass's raw effect is the point.
  bool allow_fallback_to_umm = true;
  /// Fail hard: compile() lets a typed failure propagate instead of
  /// shipping the UMM floor (the pre-resil throwing behavior; --strict).
  bool strict = false;
  /// Fraction of post-tile-buffer SRAM handed to DNNK as R_sram (the rest
  /// is routing/control margin).
  double sram_capacity_fraction = 0.90;
  /// The design-space options. A compile reads nothing from them: it picks
  /// the clock per objective itself (the heavy-URAM clock for LCMM
  /// designs, the uniform one for the UMM baseline), and `heavy_uram_use`
  /// only steers a standalone Dse::explore(graph).
  hw::DseOptions dse;
  LivenessOptions liveness;
  AllocatorOptions alloc;
  SplitOptions split;
};

/// An on-chip tensor buffer with its physical SRAM placement.
struct PhysicalBuffer {
  VirtualBuffer buffer;
  mem::SramAllocation sram;
};

struct AllocationPlan {
  bool is_umm = false;
  hw::AcceleratorDesign design;

  /// Rung this plan was produced on. kFullLcmm means no degradation
  /// happened (the paper pipeline ran to completion — which includes the
  /// deliberate no-benefit fallback to the uniform design); kUmm means the
  /// pipeline failed and the UMM floor shipped.
  resil::Rung rung = resil::Rung::kFullLcmm;
  /// Why the plan landed on the floor ("LCMM-E801@pass.dnnk"); empty when
  /// rung == kFullLcmm.
  std::string degrade_reason;

  /// Allocation entities and the virtual buffers over them. `buffers`
  /// indexes into `entities` via VirtualBuffer::members.
  std::vector<TensorEntity> entities;
  std::vector<VirtualBuffer> buffers;
  std::vector<bool> buffer_on_chip;
  std::vector<PhysicalBuffer> physical;
  OnChipState state{0};
  PrefetchResult prefetch;

  /// Weight tensors promoted to persistent residency: their buffer is
  /// never shared, so after the first inference the weights are simply
  /// on-chip — no per-inference prefetch, no stall (steady-state metric).
  std::vector<graph::LayerId> resident_weights;

  hw::TileBufferBytes tile_buffers;
  std::int64_t tensor_buffer_bytes = 0;
  int bram_used = 0, bram_total = 0;
  int uram_used = 0, uram_total = 0;

  /// The shipped plan's simulated latency: the Eq. 1 sum plus the prefetch
  /// stalls left after refinement. For a UMM plan it equals the Eq. 1 sum
  /// exactly (no prefetches, no stalls).
  double est_latency_s = 0.0;
  /// Eq. 1 latency of this plan's design with every tensor off chip.
  double umm_latency_s = 0.0;
  int num_memory_bound_conv = 0;
  /// Memory-bound conv layers with at least one on-chip tensor (POL).
  int num_benefiting_conv = 0;

  /// Per-layer bitmap of resident_weights over `num_layers` layers; ids
  /// outside [0, num_layers) are left out (the checker reports them).
  std::vector<bool> resident_weight_mask(std::size_t num_layers) const;

  double pol() const {
    return num_memory_bound_conv > 0
               ? static_cast<double>(num_benefiting_conv) / num_memory_bound_conv
               : 0.0;
  }
  double bram_utilization() const {
    return bram_total > 0 ? static_cast<double>(bram_used) / bram_total : 0.0;
  }
  double uram_utilization() const {
    return uram_total > 0 ? static_cast<double>(uram_used) / uram_total : 0.0;
  }
  /// Byte-weighted utilization of all on-chip memory (Tab. 1 SRAM column).
  double sram_utilization() const;
};

class LcmmCompiler {
 public:
  LcmmCompiler(hw::FpgaDevice device, hw::Precision precision,
               LcmmOptions options = {});

  /// Full LCMM compilation, stall refinement and fallback included: the
  /// result is the plan that ships. A failure ships the UMM floor (under
  /// `strict` it propagates); an OptionError always propagates, and so does
  /// a failure of the floor itself. The UMM baseline is compiled only for
  /// the no-benefit fallback, the floor, or a caller that passes
  /// `umm_baseline` or `umm_sim`: it is copied to `umm_baseline` when
  /// given — equal to compile_umm(graph), without a second design-space
  /// evaluation — and its simulation to `umm_sim`; the returned plan's
  /// simulation goes to `plan_sim`. Both equal sim::simulate bit for bit.
  AllocationPlan compile(const graph::ComputationGraph& graph,
                         AllocationPlan* umm_baseline = nullptr,
                         sim::SimResult* umm_sim = nullptr,
                         sim::SimResult* plan_sim = nullptr) const;
  /// Uniform-memory-management baseline. There is no floor below it, so
  /// any error propagates.
  AllocationPlan compile_umm(const graph::ComputationGraph& graph) const;
  /// Stall-refined LCMM with a caller-fixed design (skips DSE and the
  /// fallback; used by design-space scans).
  AllocationPlan compile_with_design(const graph::ComputationGraph& graph,
                                     const hw::AcceleratorDesign& design) const;

 private:
  /// One LCMM pipeline attempt on `space`: seed DSE, allocation, refine
  /// DSE, then stall refinement of the kept plan into `refined_sim`. Throws
  /// typed errors; compile() decides what happens next.
  AllocationPlan compile_lcmm(const graph::ComputationGraph& graph,
                              const hw::DesignSpace& space,
                              sim::SimResult& refined_sim) const;
  /// The UMM plan of the design the uniform clock's argmin picks over
  /// `space` when given (it must be this compiler's design space);
  /// otherwise each attempt builds its own space. Simulates into `sim`
  /// when given.
  AllocationPlan compile_umm(const graph::ComputationGraph& graph,
                             const hw::DesignSpace* space,
                             sim::SimResult* sim) const;
  /// Passes 2-5 and 7 under `model`'s design, whose tile buffers are
  /// `tile_buffers`.
  AllocationPlan allocate(const hw::PerfModel& model,
                          const hw::TileBufferBytes& tile_buffers) const;
  void place_physical(AllocationPlan& plan,
                      const graph::ComputationGraph& graph) const;

  hw::FpgaDevice device_;
  hw::Precision precision_;
  LcmmOptions options_;
};

}  // namespace lcmm::core
