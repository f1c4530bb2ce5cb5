#include "thermal/thermal_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace codic {

void
ThermalConfig::validate() const
{
    // Negated comparisons so NaN is rejected everywhere.
    if (!(ambient_c >= kMinAmbientC) || !(ambient_c <= kMaxAmbientC))
        fatal("ThermalConfig: ambient_c must be within the modeled ",
              kMinAmbientC, "..", kMaxAmbientC, " C range, got ",
              ambient_c);
    if (!(conductance_w_per_k > 0.0) || std::isinf(conductance_w_per_k))
        fatal("ThermalConfig: conductance_w_per_k must be finite and "
              "> 0, got ", conductance_w_per_k);
    if (!(capacitance_j_per_k > 0.0) || std::isinf(capacitance_j_per_k))
        fatal("ThermalConfig: capacitance_j_per_k must be finite and "
              "> 0, got ", capacitance_j_per_k);
    if (!(epoch_us > 0.0) || std::isinf(epoch_us))
        fatal("ThermalConfig: epoch_us must be finite and > 0, got ",
              epoch_us);
    if (!(open_row_mw >= 0.0) || std::isinf(open_row_mw))
        fatal("ThermalConfig: open_row_mw must be finite and >= 0, "
              "got ", open_row_mw);
}

ThermalModel::ThermalModel(const ThermalConfig &config, size_t banks,
                           const EnergyParams &energy)
    : config_(config), energy_(energy)
{
    config_.validate();
    CODIC_ASSERT(banks > 0);
    temp_c_.assign(banks, config_.ambient_c);
}

double
ThermalModel::bankEnergyNj(const BankEpochActivity &activity,
                           double tck_ns) const
{
    const double open_ns =
        static_cast<double>(activity.open_cycles) * tck_ns;
    return static_cast<double>(activity.act) * actPreEnergyNj(energy_) +
           static_cast<double>(activity.rd) * energy_.rd_burst_nj +
           static_cast<double>(activity.wr) * energy_.wr_burst_nj +
           static_cast<double>(activity.ref) * energy_.ref_nj +
           // mW * ns = 1e-12 J = 1e-3 nJ.
           open_ns * config_.open_row_mw * 1e-3;
}

void
ThermalModel::stepEpoch(const std::vector<BankEpochActivity> &activity,
                        double epoch_ns, double tck_ns)
{
    CODIC_ASSERT(activity.size() == temp_c_.size(),
                 "thermal step with mismatched bank count");
    CODIC_ASSERT(epoch_ns > 0.0);
    const double g = config_.conductance_w_per_k;
    const double dt_s = epoch_ns * 1e-9;
    const double decay =
        std::exp(-g * dt_s / config_.capacitance_j_per_k);
    for (size_t i = 0; i < temp_c_.size(); ++i) {
        // Average epoch power from activity energy only: an idle
        // bank has P = 0 and T_ss = ambient exactly (the idle
        // fixed-point invariant; background power is part of the
        // ambient calibration).
        const double power_w =
            bankEnergyNj(activity[i], tck_ns) * 1e-9 / dt_s;
        const double t_ss = config_.ambient_c + power_w / g;
        temp_c_[i] = t_ss + (temp_c_[i] - t_ss) * decay;
    }
}

void
ThermalModel::stepIdle(double epoch_ns)
{
    CODIC_ASSERT(epoch_ns > 0.0);
    const double decay =
        std::exp(-config_.conductance_w_per_k * epoch_ns * 1e-9 /
                 config_.capacitance_j_per_k);
    for (double &t : temp_c_)
        t = config_.ambient_c + (t - config_.ambient_c) * decay;
}

double
ThermalModel::maxTemp() const
{
    return *std::max_element(temp_c_.begin(), temp_c_.end());
}

size_t
ThermalModel::hottestBank() const
{
    return static_cast<size_t>(
        std::max_element(temp_c_.begin(), temp_c_.end()) -
        temp_c_.begin());
}

ThermalThrottle::ThermalThrottle(double ceiling_c, double floor_c)
    : ceiling_c_(ceiling_c), floor_c_(floor_c)
{
    CODIC_ASSERT(floor_c_ < ceiling_c_,
                 "throttle floor must sit below the ceiling");
}

bool
ThermalThrottle::update(double temp_c)
{
    if (!throttled_ && temp_c > ceiling_c_) {
        throttled_ = true;
        ++engagements_;
    } else if (throttled_ && temp_c < floor_c_) {
        throttled_ = false;
    }
    return throttled_;
}

} // namespace codic
