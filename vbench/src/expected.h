// Committed expected outputs, measured at the commit that introduced the
// benchmark (Release build) and the tolerances the oracles apply to them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/sweeps.h"
#include "sc/compact_model.h"

namespace vbench::expected {

// DC-derived figure values: solver tolerance (1e-10 relative residual) and
// summation-order changes stay far below this.
inline constexpr double kDcRel = 1e-6;

inline constexpr vstack::core::Fig5aRow kFig5a[] = {
    {2, 2.29598136, 2.48022626, 0.552240439, 1},
    {4, 0.71780812, 0.830119962, 0.210941624, 0.887764568},
    {6, 0.420623004, 0.505001299, 0.129670073, 0.840417542},
    {8, 0.296488878, 0.362791629, 0.0926666186, 0.809949602},
};
inline constexpr vstack::core::Fig5bRow kFig5b[] = {
    {2, 0.149443217, 0.276179135, 0.387011329, 0.499054848, 1},
    {4, 0.0703839319, 0.132425681, 0.188477338, 0.242949897, 1.01814794},
    {6, 0.0451981266, 0.0854141835, 0.12215734, 0.157529694, 1.0237703},
    {8, 0.0329814044, 0.0624236622, 0.0894423587, 0.115331936, 1.02644337},
};

// Fig. 6 / Fig. 8 rows at the anchor imbalances; -1 marks a point the
// paper skips (converter current limit violated).
struct Fig6Anchor {
  double imbalance;
  double vs_noise[4];
};
inline constexpr Fig6Anchor kFig6Anchors[] = {
    {0.0, {0.0069712464, 0.00697139249, 0.00697130778, 0.00697143046}},
    {0.5, {-1, 0.0368410662, 0.0249813613, 0.0196696518}},
    {1.0, {-1, -1, 0.0489264068, 0.0389005003}},
};
inline constexpr double kFig6RegDense = 0.0138140617;
inline constexpr double kFig6RegSparse = 0.0152940846;
inline constexpr double kFig6RegFew = 0.0307672206;

struct Fig8Anchor {
  double imbalance;
  double vs_efficiency[4];
  double regular_sc;
};
inline constexpr Fig8Anchor kFig8Anchors[] = {
    {0.1, {0.96512847, 0.933442252, 0.90359637, 0.875559075}, 0.834489325},
    {0.5, {-1, 0.91130913, 0.878909505, 0.847553389}, 0.811940566},
    {1.0, {-1, -1, 0.818397069, 0.784761526}, 0.759680189},
};

// Fig. 7: the paper reports a 65% mean max-imbalance over PARSEC.
inline constexpr std::size_t kFig7Apps = 13;
inline constexpr double kFig7MeanMin = 0.55;
inline constexpr double kFig7MeanMax = 0.75;

// Ride-through campaign verdicts at the tuning and held-out seeds.
struct CampaignExpectation {
  std::uint64_t seed;
  std::size_t trials;
  std::size_t recovered, degraded, lost;
  double worst_droop;
};
inline constexpr CampaignExpectation kCampaign[] = {
    {42, 4, 4, 0, 0, 0.0649005272},
    {7, 4, 4, 0, 0, 0.0649005272},
};
inline constexpr double kDroopAbs = 1e-6;

// Imported grid: pad current vs load current (no floating islands, so the
// only gap is the solve residual).
inline constexpr double kKclRel = 1e-6;

// Fig. 3 points and the simulator's committed results there.  The model
// tolerances are those of the repository's own Fig. 3 regression test.
struct Fig3Point {
  vstack::sc::ControlPolicy policy;
  double load_ma;
  double efficiency;
  double voltage_drop;  // [V]
};
inline constexpr Fig3Point kFig3[] = {
    {vstack::sc::ControlPolicy::ClosedLoop, 1.6, 0.831776, 0.0463151},
    {vstack::sc::ControlPolicy::ClosedLoop, 3.1, 0.848594, 0.0570858},
    {vstack::sc::ControlPolicy::ClosedLoop, 6.3, 0.852913, 0.0574531},
    {vstack::sc::ControlPolicy::ClosedLoop, 12.5, 0.856099, 0.0581667},
    {vstack::sc::ControlPolicy::ClosedLoop, 25.0, 0.859295, 0.0596039},
    {vstack::sc::ControlPolicy::ClosedLoop, 50.0, 0.861142, 0.0621613},
    {vstack::sc::ControlPolicy::ClosedLoop, 100.0, 0.861116, 0.0647495},
    {vstack::sc::ControlPolicy::OpenLoop, 10.0, 0.520955, 0.0098360},
    {vstack::sc::ControlPolicy::OpenLoop, 20.0, 0.679542, 0.0159375},
    {vstack::sc::ControlPolicy::OpenLoop, 30.0, 0.753856, 0.0220390},
    {vstack::sc::ControlPolicy::OpenLoop, 40.0, 0.795397, 0.0281405},
    {vstack::sc::ControlPolicy::OpenLoop, 50.0, 0.820804, 0.0342420},
    {vstack::sc::ControlPolicy::OpenLoop, 60.0, 0.837082, 0.0403435},
    {vstack::sc::ControlPolicy::OpenLoop, 70.0, 0.847694, 0.0464450},
    {vstack::sc::ControlPolicy::OpenLoop, 80.0, 0.854548, 0.0525465},
    {vstack::sc::ControlPolicy::OpenLoop, 90.0, 0.858782, 0.0586480},
};
inline constexpr double kScModelEff = 0.03;
inline constexpr double kScModelDropV = 6e-3;
inline constexpr double kScCommittedEff = 2e-3;
inline constexpr double kScCommittedDropV = 5e-4;

}  // namespace vbench::expected
