/**
 * @file
 * Integral control law with anti-windup clamping.
 *
 * The EC and SM are both integral controllers: the actuator moves by an
 * amount proportional to the current error, accumulating over time so the
 * steady-state error is driven to zero. integralStep() is the shared
 * core: u(k) = clamp(u(k-1) + gain(k) * error(k), lo, hi), where gain(k)
 * may be supplied per step (the EC's gain is self-tuning; see Figure 6).
 * Clamping every step is the anti-windup: a saturated actuator moves
 * off its bound on the first error of the opposite sign.
 */

#ifndef NPS_CONTROL_INTEGRAL_H
#define NPS_CONTROL_INTEGRAL_H

#include <algorithm>

namespace nps {
namespace ctl {

/** Panics: an integral law with lo > hi. */
[[noreturn]] void integralBadRange(double lo, double hi);

/**
 * One step of the clamped integral law, inlined into the per-server
 * kernels. @return clamp(value + gain * error, lo, hi); panics when
 * lo > hi.
 */
inline double
integralStep(double value, double gain, double error, double lo, double hi)
{
    if (lo > hi)
        integralBadRange(lo, hi);
    return std::min(hi, std::max(lo, value + gain * error));
}

} // namespace ctl
} // namespace nps

#endif // NPS_CONTROL_INTEGRAL_H
