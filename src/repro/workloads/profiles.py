"""Synthetic application profiles standing in for SPEC programs.

Each profile captures the traits the analytic window model consumes:

- ``cpi_base``: cycles per instruction with an ideal memory system.
- ``apki``: L2 accesses per kilo-instruction.
- ``mrc``: miss-ratio curve versus effective L2 share.
- ``write_frac``: writeback bytes per miss byte (dirty-line fraction).
- ``mlp``: memory-level parallelism — how many misses overlap.
- ``spec_traffic_frac``: extra speculative/prefetch traffic at the top
  frequency; it scales down with core frequency, which is why DTM-CDVFS
  trims total traffic by a few percent (§4.4.2).
- ``instructions``: dynamic instruction count of one copy.

Calibration targets (checked by tests):

- With four copies sharing the simulated platform, the eight "high"
  SPEC2000 programs demand > 10 GB/s and the four "moderate" ones fall
  between 5 and 10 GB/s (§4.3.2).
- On the Chapter 5 servers, ten programs average > 80 degC AMB, four sit
  between 70 and 80 degC and the rest stay below 70 degC (§5.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.mrc import MissRatioCurve
from repro.engine.codec import Float, Instance, Text, check_domain, domain
from repro.errors import WorkloadError

MB = 1024 * 1024
#: A rate or count the window model divides by.
_POSITIVE = Float(0.0, strict=True)


@dataclass(frozen=True)
class AppProfile:
    """Architectural profile of one application."""

    name: str = domain(Text())
    suite: str = domain(Text())
    cpi_base: float = domain(_POSITIVE)
    apki: float = domain(Float(0.0))
    mrc: MissRatioCurve = domain(Instance(MissRatioCurve))
    write_frac: float = domain(Float(0.0, 1.0))
    mlp: float = domain(_POSITIVE)
    instructions: float = domain(_POSITIVE)
    spec_traffic_frac: float = domain(Float(0.0), 0.09)

    __post_init__ = check_domain

    def misses_per_instruction(self, cache_share_bytes: float) -> float:
        """L2 misses per instruction at a given effective cache share."""
        return self.apki / 1000.0 * self.mrc.miss_ratio(cache_share_bytes)


def _app(
    name: str,
    suite: str,
    cpi: float,
    apki: float,
    m_peak: float,
    m_floor: float,
    c_half_mb: float,
    alpha: float,
    write_frac: float,
    mlp: float,
    instructions_e11: float,
) -> AppProfile:
    """Compact profile constructor used by the tables below."""
    return AppProfile(
        name=name,
        suite=suite,
        cpi_base=cpi,
        apki=apki,
        mrc=MissRatioCurve(
            m_peak=m_peak, m_floor=m_floor, c_half_bytes=c_half_mb * MB, alpha=alpha
        ),
        write_frac=write_frac,
        mlp=mlp,
        instructions=instructions_e11 * 1e11,
    )


#: SPEC CPU2000 programs with > 10 GB/s four-copy memory demand (§4.3.2).
SPEC2000_HIGH = (
    "swim", "mgrid", "applu", "galgel", "art", "equake", "lucas", "fma3d",
)

#: SPEC CPU2000 programs with 5–10 GB/s four-copy memory demand (§4.3.2).
SPEC2000_MODERATE = ("wupwise", "vpr", "mcf", "apsi")

_PROFILES: dict[str, AppProfile] = {}

for profile in (
    # --- SPEC CPU2000, high memory intensity ------------------------------
    #     name       suite   cpi  apki  mpk  mfl  c_half alpha  wf   mlp  instr
    _app("swim",    "cpu2000", 0.45, 32.0, 0.8, 0.3, 1.5, 1.3, 0.45, 7.0, 3.4),
    _app("mgrid",   "cpu2000", 0.50, 28.0, 0.82, 0.32, 1.4, 1.2, 0.35, 6.5, 3.0),
    _app("applu",   "cpu2000", 0.50, 26.0, 0.75, 0.26, 1.3, 1.2, 0.40, 6.5, 3.2),
    _app("galgel",  "cpu2000", 0.40, 22.0, 0.68, 0.20, 1.2, 1.5, 0.25, 5.5, 2.8),
    _app("art",     "cpu2000", 0.35, 40.0, 0.9, 0.25, 1.1, 1.8, 0.15, 7.5, 2.6),
    _app("equake",  "cpu2000", 0.55, 24.0, 0.75, 0.28, 1.2, 1.3, 0.30, 6.0, 2.9),
    _app("lucas",   "cpu2000", 0.50, 25.0, 0.78, 0.32, 1.3, 1.2, 0.35, 7.0, 3.0),
    _app("fma3d",   "cpu2000", 0.55, 21.0, 0.66, 0.25, 1.2, 1.3, 0.35, 5.5, 3.1),
    # --- SPEC CPU2000, moderate memory intensity --------------------------
    _app("wupwise", "cpu2000", 0.45, 13.0, 0.60, 0.32, 1.0, 1.3, 0.30, 4.5, 3.3),
    _app("vpr",     "cpu2000", 0.60, 14.0, 0.55, 0.16, 1.5, 1.6, 0.20, 3.0, 2.7),
    _app("mcf",     "cpu2000", 0.70, 36.0, 0.85, 0.46, 2.0, 1.0, 0.10, 2.4, 2.5),
    _app("apsi",    "cpu2000", 0.50, 13.0, 0.52, 0.22, 1.2, 1.4, 0.30, 3.5, 3.0),
    # --- SPEC CPU2000, lower intensity (Fig. 5.5 homogeneous sweep) -------
    _app("facerec", "cpu2000", 0.55, 16.0, 0.62, 0.38, 0.8, 1.3, 0.25, 4.5, 2.8),
    _app("gap",     "cpu2000", 0.60, 10.0, 0.50, 0.18, 1.0, 1.4, 0.25, 3.0, 2.6),
    _app("bzip2",   "cpu2000", 0.55,  9.0, 0.45, 0.12, 1.0, 1.5, 0.30, 3.0, 2.7),
    _app("gzip",    "cpu2000", 0.50,  5.0, 0.35, 0.05, 0.6, 1.5, 0.25, 2.0, 2.4),
    _app("crafty",  "cpu2000", 0.45,  3.0, 0.20, 0.02, 0.4, 1.5, 0.15, 2.0, 2.5),
    _app("mesa",    "cpu2000", 0.50,  3.5, 0.25, 0.03, 0.5, 1.5, 0.20, 2.0, 2.4),
    _app("parser",  "cpu2000", 0.60,  6.0, 0.40, 0.08, 0.8, 1.4, 0.20, 2.0, 2.3),
    _app("perlbmk", "cpu2000", 0.50,  4.0, 0.30, 0.04, 0.6, 1.5, 0.20, 2.0, 2.4),
    _app("twolf",   "cpu2000", 0.65,  7.0, 0.45, 0.06, 1.0, 1.5, 0.15, 2.0, 2.3),
    _app("vortex",  "cpu2000", 0.55,  6.5, 0.42, 0.07, 0.9, 1.4, 0.25, 2.2, 2.5),
    _app("eon",     "cpu2000", 0.45,  2.0, 0.15, 0.01, 0.3, 1.5, 0.10, 2.0, 2.4),
    _app("gcc",     "cpu2000", 0.55,  7.5, 0.42, 0.08, 0.9, 1.4, 0.25, 2.4, 2.4),
    _app("ammp",    "cpu2000", 0.60,  8.0, 0.48, 0.14, 1.1, 1.3, 0.20, 2.3, 2.5),
    _app("sixtrack","cpu2000", 0.45,  2.5, 0.18, 0.02, 0.4, 1.5, 0.15, 2.0, 2.5),
    # --- SPEC CPU2006 (Table 5.2 selections) ------------------------------
    _app("milc",      "cpu2006", 0.55, 26.0, 0.78, 0.34, 1.2, 1.2, 0.35, 6.5, 3.2),
    _app("leslie3d",  "cpu2006", 0.50, 24.0, 0.75, 0.3, 1.2, 1.2, 0.35, 6.2, 3.1),
    _app("soplex",    "cpu2006", 0.60, 28.0, 0.8, 0.28, 1.6, 1.2, 0.25, 5.0, 2.9),
    _app("GemsFDTD",  "cpu2006", 0.55, 27.0, 0.78, 0.32, 1.2, 1.2, 0.35, 6.2, 3.1),
    _app("libquantum","cpu2006", 0.45, 30.0, 0.85, 0.70, 0.4, 1.2, 0.25, 8.0, 3.3),
    _app("lbm",       "cpu2006", 0.50, 29.0, 0.80, 0.60, 0.6, 1.2, 0.45, 7.5, 3.2),
    _app("omnetpp",   "cpu2006", 0.65, 22.0, 0.70, 0.30, 1.8, 1.1, 0.20, 2.6, 2.7),
    _app("wrf",       "cpu2006", 0.55, 18.0, 0.64, 0.24, 1.2, 1.3, 0.30, 5.0, 3.0),
):
    _PROFILES[profile.name] = profile


def get_app(name: str) -> AppProfile:
    """Look up an application profile by name.

    Raises:
        WorkloadError: if no profile with that name exists.
    """
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise WorkloadError(f"unknown application {name!r}; known: {known}") from None


def all_apps(suite: str | None = None) -> list[AppProfile]:
    """All profiles, optionally filtered by suite ('cpu2000' / 'cpu2006')."""
    profiles = sorted(_PROFILES.values(), key=lambda p: p.name)
    if suite is None:
        return profiles
    return [p for p in profiles if p.suite == suite]
