#include "wsp/pdn/transient.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/common/error.hpp"

namespace wsp::pdn {

TransientResult simulate_load_transient(
    const LdoParams& ldo, const TransientParams& params, double duration_s,
    const std::function<double(double)>& i_load) {
  require(params.decap_f > 0.0, "decap must be positive");
  require(params.dt_s > 0.0 && params.dt_s < params.loop_tau_s,
          "integration step must resolve the loop time constant");
  require(duration_s > 0.0, "duration must be positive");

  TransientResult result;
  const auto steps = static_cast<std::size_t>(duration_s / params.dt_s);
  result.waveform.reserve(steps + 1);

  double v = ldo.target_v;
  double i_reg = i_load(0.0);
  double last_load = i_reg;
  double last_change_t = 0.0;
  double settled_since = -1.0;

  result.min_v = v;
  result.max_v = v;

  for (std::size_t n = 0; n <= steps; ++n) {
    const double t = static_cast<double>(n) * params.dt_s;
    const double load = i_load(t);
    if (std::abs(load - last_load) > 1e-12) {
      last_change_t = t;
      settled_since = -1.0;
      last_load = load;
    }

    // Loop tries to source whatever restores the output to target;
    // the pass device cannot sink current (clamp at 0) nor exceed its max.
    const double i_target =
        std::clamp(load + params.loop_gain * (ldo.target_v - v), 0.0,
                   ldo.max_load_a * 1.5);
    i_reg += (i_target - i_reg) * (params.dt_s / params.loop_tau_s);
    v += (i_reg - load) * (params.dt_s / params.decap_f);

    result.min_v = std::min(result.min_v, v);
    result.max_v = std::max(result.max_v, v);

    const bool within = std::abs(v - ldo.target_v) <= params.settle_band_v;
    if (within && settled_since < 0.0) settled_since = t;
    if (!within) settled_since = -1.0;

    result.waveform.push_back({t, v, load, i_reg});
  }

  result.stayed_in_band =
      result.min_v >= ldo.min_output_v && result.max_v <= ldo.max_output_v;
  // `settled_since` marks the start of the FINAL in-band stretch (any
  // band exit resets it, so first-entry timestamps of incomplete rings
  // never survive).  Still, a simulation horizon that happens to end on an
  // in-band sample mid-ring would report the crossing as settled — require
  // the stretch to have lasted the dwell time before believing it.
  const double dwell = params.settle_dwell_s > 0.0 ? params.settle_dwell_s
                                                   : 5.0 * params.loop_tau_s;
  const double t_end = static_cast<double>(steps) * params.dt_s;
  if (settled_since >= 0.0 && t_end - settled_since >= dwell)
    result.settle_time_s = std::max(0.0, settled_since - last_change_t);
  return result;
}

TransientResult simulate_load_step(const LdoParams& ldo,
                                   const TransientParams& params, double i0,
                                   double i1, double t_step,
                                   double duration_s) {
  return simulate_load_transient(
      ldo, params, duration_s,
      [=](double t) { return t < t_step ? i0 : i1; });
}

}  // namespace wsp::pdn
