// Unit helpers and physical constants.
//
// The library works in SI base units throughout: volts, amperes, ohms,
// farads, seconds, meters, watts, kelvin.  These helpers exist so that
// configuration code can say `200 * units::um` instead of `200e-6` and a
// reviewer can check it against the paper's Table 1 at a glance.
#pragma once

#include <string_view>

namespace vstack::units {

// Length.
inline constexpr double m = 1.0;
inline constexpr double mm = 1e-3;
inline constexpr double um = 1e-6;
inline constexpr double nm = 1e-9;

// Area.
inline constexpr double mm2 = 1e-6;
inline constexpr double um2 = 1e-12;

// Resistance.
inline constexpr double Ohm = 1.0;
inline constexpr double mOhm = 1e-3;

// Capacitance.
inline constexpr double F = 1.0;
inline constexpr double uF = 1e-6;
inline constexpr double nF = 1e-9;
inline constexpr double pF = 1e-12;
inline constexpr double fF = 1e-15;

// Time / frequency.
inline constexpr double s = 1.0;
inline constexpr double ms = 1e-3;
inline constexpr double us = 1e-6;
inline constexpr double ns = 1e-9;
inline constexpr double ps = 1e-12;
inline constexpr double Hz = 1.0;
inline constexpr double kHz = 1e3;
inline constexpr double MHz = 1e6;
inline constexpr double GHz = 1e9;

// Electrical.
inline constexpr double V = 1.0;
inline constexpr double mV = 1e-3;
inline constexpr double A = 1.0;
inline constexpr double mA = 1e-3;
inline constexpr double uA = 1e-6;
inline constexpr double W = 1.0;
inline constexpr double mW = 1e-3;

/// Scale of a SPICE magnitude suffix given in lower case: f p n u m k meg g
/// t (m is milli, meg is mega); 0 for anything else.  Each netlist grammar
/// decides which part of a token's tail it passes here.
constexpr double spice_magnitude(std::string_view suffix) {
  if (suffix == "meg") return 1e6;
  if (suffix.size() != 1) return 0.0;
  switch (suffix.front()) {
    case 'f': return 1e-15;
    case 'p': return 1e-12;
    case 'n': return 1e-9;
    case 'u': return 1e-6;
    case 'm': return 1e-3;
    case 'k': return 1e3;
    case 'g': return 1e9;
    case 't': return 1e12;
    default: return 0.0;
  }
}

}  // namespace vstack::units

namespace vstack::constants {

/// Boltzmann constant [eV/K]; Black's equation uses activation energy in eV.
inline constexpr double kBoltzmannEv = 8.617333262e-5;

/// Resistivity of electroplated copper interconnect at operating temperature
/// [Ohm*m].  (Bulk Cu is 1.68e-8 at 20C; on-chip wires run hotter and have
/// surface/grain scattering.)
inline constexpr double kCopperResistivity = 2.2e-8;

/// Thermal conductivity of silicon [W/(m*K)] near 350 K.
inline constexpr double kSiliconThermalConductivity = 120.0;

/// Thermal conductivity of a thermal-interface / bonding layer [W/(m*K)].
inline constexpr double kTimThermalConductivity = 4.0;

/// Celsius <-> Kelvin offset.
inline constexpr double kCelsiusOffset = 273.15;

}  // namespace vstack::constants
