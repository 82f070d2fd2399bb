// Golden outputs recorded at the commit that defined the benchmark.
//
// Scheduler workloads: FNV-1a schedule digests for the default seed (see
// checks.hpp), keyed by "machine/policy". contention_sim: the simulated
// seconds of every catalogue point at unit volume scale; a run's points
// scale their volume by powers of two, which scales every result exactly,
// so these pin the outputs of every seed. Regenerate with
// `perfbench --workload <name> --print-golden` only when a workload's
// definition changes.
#pragma once

#include "workload.hpp"

namespace perfbench {

inline const GoldenValues kGoldenStreamTorus = {
    {"mira/best-bisection", "10422796066886713142"},
    {"mira/easy-backfill", "15890431709784254922"},
};

inline const GoldenValues kGoldenStreamClos = {
    {"dragonfly/best-bisection", "2871596673934564900"},
    {"dragonfly/easy-backfill", "169268535590153328"},
    {"fattree/best-bisection", "2100161586283208826"},
    {"fattree/easy-backfill", "12862386981474673460"},
};

inline const GoldenValues kGoldenMonteCarlo = {
    {"all", "3371904093935568765"},
};

inline const GoldenValues kGoldenContention = {
    {"A/juqueen/12#0", "167.50372454399999"},
    {"A/juqueen/12#1", "83.751862271999997"},
    {"A/juqueen/16#0", "111.66914969600001"},
    {"A/juqueen/16#1", "55.834574848000003"},
    {"A/juqueen/4#0", "111.66914969600001"},
    {"A/juqueen/4#1", "55.834574848000003"},
    {"A/juqueen/6#0", "167.50372454399999"},
    {"A/juqueen/6#1", "83.751862271999997"},
    {"A/juqueen/8#0", "111.66914969600001"},
    {"A/juqueen/8#1", "55.834574848000003"},
    {"A/mira/16#0", "111.66914969600001"},
    {"A/mira/16#1", "55.834574848000003"},
    {"A/mira/24#0", "111.66914969600001"},
    {"A/mira/24#1", "83.751862271999997"},
    {"A/mira/4#0", "111.66914969600001"},
    {"A/mira/4#1", "55.834574848000003"},
    {"A/mira/8#0", "111.66914969600001"},
    {"A/mira/8#1", "55.834574848000003"},
    {"caps/1/current/p2401#0", "0.028949477052631574"},
    {"caps/1/current/p343#0", "0.029542605473684203"},
    {"caps/2/current/p343#0", "0.037753066105263147"},
    {"caps/4/current/p343#0", "0.075850514526315804"},
    {"caps/4/proposed/p343#0", "0.040793087999999977"},
    {"caps/8/current/p343#0", "0.075850514526315804"},
    {"caps/8/proposed/p343#0", "0.041870551578947347"},
    {"route/dragonfly-a4h4g8/alltoall#0", "0.64501312335957994"},
    {"route/dragonfly-a4h4g8/pairing#0", "1"},
    {"route/dragonfly-a4h4g8/pairing#1", "160"},
    {"route/dragonfly-a8h4g16/alltoall#0", "0.68150684931506855"},
    {"route/dragonfly-a8h4g16/pairing#0", "2"},
    {"route/fattree-k12/alltoall#0", "0.5"},
    {"route/fattree-k12/pairing#0", "0.50000000000000011"},
    {"route/fattree-k12/pairing#1", "216"},
    {"route/fattree-k8/alltoall#0", "0.5"},
    {"route/fattree-k8/pairing#0", "0.5"},
    {"route/fattree-k8/pairing#1", "64"},
};

}  // namespace perfbench
