#include "control/integral.h"

#include "util/logging.h"

namespace nps {
namespace ctl {

void
integralBadRange(double lo, double hi)
{
    util::panic("integralStep: lo %f > hi %f", lo, hi);
}

} // namespace ctl
} // namespace nps
