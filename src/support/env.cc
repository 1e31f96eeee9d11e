#include "support/env.hh"

#include <cstdlib>

#include "support/logging.hh"

namespace predilp
{

EnvConfig
EnvConfig::fromEnvironment()
{
    EnvConfig config;
    if (const char *dir = std::getenv("PREDILP_STORE");
        dir != nullptr && dir[0] != '\0') {
        config.storeDir = dir;
    }
    if (const char *mode = std::getenv("PREDILP_STORE_MODE"))
        config.storeMode = mode;
    if (const char *env = std::getenv("PREDILP_THREADS")) {
        int parsed = std::atoi(env);
        if (parsed > 0) {
            config.threads = parsed;
        } else {
            warn("ignoring invalid PREDILP_THREADS value '" +
                 std::string(env) + "'");
        }
    }
    if (const char *emu = std::getenv("PREDILP_EMU"))
        config.emuBackend = emu;
    if (const char *faults = std::getenv("PREDILP_FAULTS");
        faults != nullptr && faults[0] != '\0') {
        config.faultSpec = faults;
    }
    return config;
}

} // namespace predilp
