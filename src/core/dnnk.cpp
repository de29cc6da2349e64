#include "core/dnnk.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "obs/scope.hpp"
#include "resil/error.hpp"

namespace lcmm::core {

namespace {

/// One member of the buffer in the current DP row, with every part of its
/// compensated gain that does not depend on the capacity column j.
struct MemberTerm {
  /// Marginal gain by layer on-chip mask. Only the masks a cell can reach
  /// (the subsets of the owner sources) are filled.
  std::array<double, 1u << kNumSources> gain{};
  /// Earlier buffers holding sources of the layer: their pbuf_table row
  /// offset and the source whose bit a taken cell sets.
  int num_owners = 0;
  std::array<std::size_t, kNumSources> owner_offset{};
  std::array<int, kNumSources> owner_source{};
};

/// Builds the row-`row` terms of `members` (in order) into `terms`, and the
/// pbuf_table offsets of their distinct owner rows into `owner_rows`.
/// `last_reader[k]` is the last row that listed owner row k; no row is `row`
/// before this call.
void build_member_terms(const InterferenceGraph& graph,
                        const std::vector<std::size_t>& members,
                        const std::vector<std::array<int, kNumSources>>& buffer_of,
                        const LatencyTables& tables, std::size_t row,
                        std::size_t width, std::vector<MemberTerm>& terms,
                        std::vector<std::size_t>& last_reader,
                        std::vector<std::size_t>& owner_rows) {
  terms.resize(members.size());
  owner_rows.clear();
  for (std::size_t m = 0; m < members.size(); ++m) {
    const TensorKey key = graph.entities()[members[m]].key;
    MemberTerm& term = terms[m];
    term.num_owners = 0;
    std::uint8_t owner_bits = 0;
    for (int s = 0; s < kNumSources; ++s) {
      const int owner = buffer_of[static_cast<std::size_t>(key.layer)][s];
      if (owner < 0 || static_cast<std::size_t>(owner) >= row) continue;
      const auto k = static_cast<std::size_t>(owner);
      term.owner_offset[term.num_owners] = k * width;
      term.owner_source[term.num_owners] = s;
      ++term.num_owners;
      owner_bits = static_cast<std::uint8_t>(owner_bits | (1u << s));
      if (last_reader[k] != row) {
        last_reader[k] = row;
        owner_rows.push_back(k * width);
      }
    }
    for (std::uint8_t sub = owner_bits;;
         sub = static_cast<std::uint8_t>((sub - 1) & owner_bits)) {
      term.gain[sub] = tables.marginal_gain(key.layer, key.source, sub);
      if (sub == 0) break;
    }
  }
}

void require_positive_granularity(const AllocatorOptions& options) {
  if (options.granularity_bytes <= 0) {
    throw resil::OptionError(resil::Code::kBadOptions, "pass.dnnk",
                             "AllocatorOptions: granularity <= 0");
  }
}

}  // namespace

std::int64_t quantized_units(std::int64_t bytes, const AllocatorOptions& options) {
  require_positive_granularity(options);
  return (bytes + options.granularity_bytes - 1) / options.granularity_bytes;
}

AllocatorResult evaluate_selection(const InterferenceGraph& graph,
                                   const std::vector<VirtualBuffer>& buffers,
                                   const LatencyTables& tables,
                                   const std::vector<bool>& selection,
                                   const AllocatorOptions& options) {
  if (selection.size() != buffers.size()) {
    throw resil::OptionError(resil::Code::kBadArgument, "pass.dnnk",
                             "evaluate_selection: selection size mismatch");
  }
  AllocatorResult result;
  result.buffer_on_chip = selection;
  result.state = OnChipState(tables.model().graph().num_layers());
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    if (!selection[b]) continue;
    result.bytes_used += quantized_units(buffers[b].bytes, options) *
                         options.granularity_bytes;
    for (std::size_t e : buffers[b].members) {
      result.state.set(graph.entities()[e].key, true);
    }
  }
  const OnChipState umm(tables.model().graph().num_layers());
  result.gain_s = tables.total_latency(umm) - tables.total_latency(result.state);
  return result;
}

namespace {

/// Alg. 1's DP over `w_cap + 1` capacity columns and its backtrace: the
/// buffers selected at capacity `w_cap`.
std::vector<bool> knapsack_select(const InterferenceGraph& graph,
                                  const std::vector<VirtualBuffer>& buffers,
                                  const LatencyTables& tables, std::int64_t w_cap,
                                  const AllocatorOptions& options) {
  const std::size_t n = buffers.size();
  const std::size_t width = static_cast<std::size_t>(w_cap) + 1;

  // Lookup: (layer, source) -> owning buffer index, for the compensation
  // reads from pbuf_table. A buffer holds at most one tensor of a layer
  // (coloring never merges two: they are all live at the layer's step), so
  // a member's mask reads only earlier buffers' pbuf_table bits.
  const std::size_t num_layers = tables.model().graph().num_layers();
  std::vector<std::array<int, kNumSources>> buffer_of(num_layers,
                                                      {-1, -1, -1, -1});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t e : buffers[b].members) {
      const TensorKey key = graph.entities()[e].key;
      std::array<int, kNumSources>& owners =
          buffer_of[static_cast<std::size_t>(key.layer)];
      if (std::find(owners.begin(), owners.end(), static_cast<int>(b)) !=
          owners.end()) {
        throw resil::OptionError(
            resil::Code::kBadArgument, "pass.dnnk",
            "dnnk_allocate: buffer " + std::to_string(buffers[b].id) +
                " holds two tensors of layer " + std::to_string(key.layer));
      }
      owners[static_cast<int>(key.source)] = static_cast<int>(b);
    }
  }

  // pbuf_table(i, j) at [i * width + j]: was buffer i taken at capacity j
  // during its DP row.
  std::vector<std::uint8_t> pbuf_table(n * width, 0);
  std::vector<double> prev(width, 0.0);
  std::vector<double> curr(width, 0.0);
  std::vector<MemberTerm> terms;
  std::vector<std::size_t> owner_rows;
  std::vector<std::size_t> last_reader(n, n);
  std::vector<std::uint8_t> boundary(width, 0);
  std::vector<std::size_t> run_starts;
  std::int64_t member_terms = 0;
  std::int64_t gain_runs = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t size_units =
        static_cast<std::size_t>(quantized_units(buffers[i].bytes, options));
    std::copy_n(prev.begin(), std::min(size_units, width), curr.begin());
    if (size_units < width) {
      // Buffer value with pivot compensation: compose marginal gains of the
      // member tensors on top of the approximate allocation state of their
      // layers, read from pbuf_table at this capacity (Alg. 1, lines 9-12
      // generalized through Eq. 1 marginal gains). Everything but the
      // pbuf_table reads is fixed for the row, so it is built once here.
      build_member_terms(graph, buffers[i].members, buffer_of, tables, i, width,
                         terms, last_reader, owner_rows);

      // The masks read only the owner rows' pbuf_table bits, so they are
      // constant on each run of columns where none of those bits changes.
      // OR-ing the rows' changes does not depend on their order.
      std::fill(boundary.begin() + static_cast<std::ptrdiff_t>(size_units),
                boundary.end(), 0);
      for (const std::size_t offset : owner_rows) {
        const std::uint8_t* const owner = pbuf_table.data() + offset;
        for (std::size_t j = size_units + 1; j < width; ++j) {
          boundary[j] |= static_cast<std::uint8_t>(owner[j] != owner[j - 1]);
        }
      }
      run_starts.assign(1, size_units);
      for (std::size_t j = size_units + 1; j < width; ++j) {
        if (boundary[j]) run_starts.push_back(j);
      }
      run_starts.push_back(width);
      const auto runs = static_cast<std::int64_t>(run_starts.size() - 1);
      gain_runs += runs;
      member_terms += runs * static_cast<std::int64_t>(terms.size());

      // A run's member gains are the same in every column, so each run sums
      // them once, in member order, and each cell adds that sum once.
      std::uint8_t* const row = pbuf_table.data() + i * width;
      for (std::size_t r = 0; r + 1 < run_starts.size(); ++r) {
        const std::size_t begin = run_starts[r];
        double run_gain = 0.0;
        for (const MemberTerm& term : terms) {
          std::uint8_t mask = 0;
          for (int o = 0; o < term.num_owners; ++o) {
            mask = static_cast<std::uint8_t>(
                mask | pbuf_table[term.owner_offset[o] + begin] << term.owner_source[o]);
          }
          run_gain += term.gain[mask];
        }
        for (std::size_t j = begin; j < run_starts[r + 1]; ++j) {
          const double take = prev[j - size_units] + run_gain;
          if (prev[j] > take) {
            curr[j] = prev[j];
          } else {
            curr[j] = take;
            row[j] = 1;
          }
        }
      }
    }
    std::swap(prev, curr);
  }
  LCMM_COUNT("member_terms", member_terms);
  LCMM_COUNT("gain_runs", gain_runs);

  // Backtrace over pbuf_table.
  std::vector<bool> selection(n, false);
  std::int64_t j = w_cap;
  for (std::size_t i = n; i-- > 0;) {
    if (pbuf_table[i * width + static_cast<std::size_t>(j)]) {
      selection[i] = true;
      j -= quantized_units(buffers[i].bytes, options);
    }
  }
  return selection;
}

}  // namespace

AllocatorResult dnnk_allocate(const InterferenceGraph& graph,
                              const std::vector<VirtualBuffer>& buffers,
                              const LatencyTables& tables,
                              std::int64_t capacity_bytes,
                              const AllocatorOptions& options) {
  LCMM_SPAN("dnnk");
  require_positive_granularity(options);
  const std::size_t n = buffers.size();
  const std::int64_t w_cap = capacity_bytes / options.granularity_bytes;
  if (w_cap < 0) {
    throw resil::OptionError(resil::Code::kBadArgument, "pass.dnnk",
                             "dnnk_allocate: negative capacity");
  }
  LCMM_COUNT("buffers", static_cast<std::int64_t>(n));
  LCMM_GAUGE("capacity_bytes", static_cast<double>(capacity_bytes));

  // When every buffer fits, the DP selects every buffer (see the header),
  // so it does not run. The sum stops once it passes w_cap, so it cannot
  // overflow.
  std::int64_t units = 0;
  for (std::size_t b = 0; b < n && units <= w_cap; ++b) {
    units += quantized_units(buffers[b].bytes, options);
  }
  const bool fits_all = units <= w_cap;
  LCMM_COUNT("fits_all", fits_all ? 1 : 0);
  LCMM_COUNT("dp_cells",
             fits_all ? 0 : static_cast<std::int64_t>(n) * (w_cap + 1));
  const std::vector<bool> selection =
      fits_all ? std::vector<bool>(n, true)
               : knapsack_select(graph, buffers, tables, w_cap, options);
  if (obs::current()) {
    for (std::size_t b = 0; b < n; ++b) {
      const char* reason =
          fits_all       ? "fits-capacity"
          : selection[b] ? "knapsack-selected"
          : quantized_units(buffers[b].bytes, options) > w_cap
              ? "exceeds-capacity"
              : "knapsack-spill";
      LCMM_COUNT(selection[b] ? "selected" : "spilled", 1);
      LCMM_DECIDE("vbuf#" + std::to_string(buffers[b].id), buffers[b].bytes,
                  selection[b], reason);
    }
  }
  return evaluate_selection(graph, buffers, tables, selection, options);
}

AllocatorResult greedy_allocate(const InterferenceGraph& graph,
                                const std::vector<VirtualBuffer>& buffers,
                                const LatencyTables& tables,
                                std::int64_t capacity_bytes,
                                const AllocatorOptions& options) {
  LCMM_SPAN("greedy");
  const std::size_t n = buffers.size();
  LCMM_COUNT("buffers", static_cast<std::int64_t>(n));
  std::vector<double> value(n, 0.0);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t e : buffers[b].members) {
      const TensorKey key = graph.entities()[e].key;
      value[b] += tables.standalone_reduction(key.layer, key.source);
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = value[a] / static_cast<double>(
                                     std::max<std::int64_t>(1, buffers[a].bytes));
    const double db = value[b] / static_cast<double>(
                                     std::max<std::int64_t>(1, buffers[b].bytes));
    return da > db;
  });
  std::vector<bool> selection(n, false);
  std::int64_t used = 0;
  for (std::size_t b : order) {
    const std::int64_t sz =
        quantized_units(buffers[b].bytes, options) * options.granularity_bytes;
    if (used + sz <= capacity_bytes && value[b] > 0.0) {
      selection[b] = true;
      used += sz;
    }
  }
  return evaluate_selection(graph, buffers, tables, selection, options);
}

AllocatorResult exact_allocate(const InterferenceGraph& graph,
                               const std::vector<VirtualBuffer>& buffers,
                               const LatencyTables& tables,
                               std::int64_t capacity_bytes,
                               const AllocatorOptions& options,
                               std::size_t max_buffers) {
  if (max_buffers > 24) {
    throw resil::OptionError(resil::Code::kBadOptions, "pass.dnnk",
                             "exact_allocate: max_buffers cap is 24");
  }
  const std::size_t n = buffers.size();
  if (n > max_buffers) {
    throw resil::OptionError(resil::Code::kGraphTooLarge, "pass.dnnk",
        "exact_allocate: too many buffers (" +
                                std::to_string(n) + ")");
  }
  LCMM_SPAN("exact");
  LCMM_COUNT("buffers", static_cast<std::int64_t>(n));
  std::vector<bool> selection(n, false);
  AllocatorResult best =
      evaluate_selection(graph, buffers, tables, selection, options);

  auto recurse = [&](auto&& self, std::size_t i, std::int64_t used) -> void {
    if (i == n) {
      LCMM_COUNT("selections_evaluated", 1);
      AllocatorResult candidate =
          evaluate_selection(graph, buffers, tables, selection, options);
      if (candidate.gain_s > best.gain_s) best = std::move(candidate);
      return;
    }
    self(self, i + 1, used);  // skip buffer i
    const std::int64_t sz =
        quantized_units(buffers[i].bytes, options) * options.granularity_bytes;
    if (used + sz <= capacity_bytes) {
      selection[i] = true;
      self(self, i + 1, used + sz);
      selection[i] = false;
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

}  // namespace lcmm::core
