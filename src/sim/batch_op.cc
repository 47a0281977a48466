#include "batch_op.h"

#include <cstdlib>

namespace mitosim::sim
{

namespace
{

/** set*EnabledForTest() overrides; -1 defers to the environment. */
int batchOverride = -1;
int fuseOverride = -1;

} // namespace

bool
batchEnabled()
{
    if (batchOverride >= 0)
        return batchOverride != 0;
    static const bool on = [] {
        const char *e = std::getenv("MITOSIM_BATCH");
        return e == nullptr || *e != '0';
    }();
    return on;
}

void
setBatchEnabledForTest(int enabled)
{
    batchOverride = enabled;
}

bool
fuseEnabled()
{
    if (fuseOverride >= 0)
        return fuseOverride != 0;
    static const bool on = [] {
        const char *e = std::getenv("MITOSIM_FUSE");
        return e == nullptr || *e != '0';
    }();
    return on;
}

void
setFuseEnabledForTest(int enabled)
{
    fuseOverride = enabled;
}

} // namespace mitosim::sim
