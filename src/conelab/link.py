"""Cross-section (link) data and spectral stability conditions.

A link is a closed Einstein manifold (F, g_F) of dimension n, represented
here purely by spectral data: its Laplace-Beltrami spectrum (with
multiplicities), optionally the spectrum of the Einstein operator restricted
to TT tensors, the total volume and the scalar curvature.  All stability and
admissibility checks are evaluated on this data; nothing is ever computed
from a concrete manifold.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .geometry import ConelabError


class SpectrumTruncationError(ConelabError):
    """The supplied spectrum does not reach far enough to decide a condition."""


STRICTLY_STABLE = "strictly_stable"
STABLE_NOT_STRICT = "stable_not_strict"
UNSTABLE = "unstable"
UNDECIDABLE = "undecidable"


@dataclass(frozen=True)
class LinkData:
    """Spectral description of the cross-section (F, g_F).

    laplace_spectrum is an ascending tuple of (eigenvalue, multiplicity)
    pairs of the Laplace-Beltrami operator; truncation_note is the largest
    eigenvalue up to which the listed spectrum is complete.
    """

    n: int
    scal_F: float
    vol_F: float
    laplace_spectrum: tuple[tuple[float, int], ...]
    truncation_note: float
    einstein_tt_spectrum: tuple[float, ...] | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("link dimension must be >= 1")
        if self.vol_F <= 0:
            raise ValueError("link volume must be positive")
        if not self.laplace_spectrum:
            raise ValueError("laplace_spectrum must be nonempty")
        eigs = [ev for ev, _ in self.laplace_spectrum]
        mults = [mu for _, mu in self.laplace_spectrum]
        if any(e2 <= e1 for e1, e2 in zip(eigs, eigs[1:])):
            raise ValueError("eigenvalues must be strictly increasing")
        if eigs[0] < 0:
            raise ValueError("Laplace eigenvalues must be nonnegative")
        if any(mu < 1 or mu != int(mu) for mu in mults):
            raise ValueError("multiplicities must be positive integers")

    @property
    def lambda_1(self) -> float | None:
        """Smallest nonzero Laplace eigenvalue in the supplied data, or None."""
        for ev, _ in self.laplace_spectrum:
            if ev > 0:
                return ev
        return None

    def eigenvalues(self, include_zero=True):
        return [ev for ev, _ in self.laplace_spectrum if include_zero or ev > 0]

    def scal_is_normalized(self) -> bool:
        """True iff scal_F = n(n-1), the normalization the stability checks assume."""
        return abs(self.scal_F - self.n * (self.n - 1)) <= 1e-9 * max(1.0, self.n**2)


def _sphere_harmonic_multiplicity(n: int, k: int) -> int:
    # dim of degree-k spherical harmonics on S^n
    if k == 0:
        return 1
    d = n + 1
    return math.comb(k + d - 1, d - 1) - math.comb(k + d - 3, d - 1)


def sphere_volume(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def sphere_link(n: int, k_max: int) -> LinkData:
    """Unit round sphere S^n with Laplace spectrum k(k+n-1), k <= k_max."""
    if n < 1 or k_max < 1:
        raise ValueError("need n >= 1 and k_max >= 1")
    spec = tuple(
        (float(k * (k + n - 1)), _sphere_harmonic_multiplicity(n, k))
        for k in range(k_max + 1)
    )
    return LinkData(
        n=n,
        scal_F=float(n * (n - 1)),
        vol_F=sphere_volume(n),
        laplace_spectrum=spec,
        truncation_note=float(k_max * (k_max + n - 1)),
        name=f"S{n}",
    )


def check_tangential_stability(link: LinkData) -> str:
    """Classify the link per the tangential stability conditions.

    Non-strict: Spec(Einstein|TT) >= 0 and no nonzero Laplace eigenvalue in
    the open interval (n, 2(n+1)).  Strict: > 0 and the closed interval.
    """
    n = link.n
    if not link.scal_is_normalized():
        raise ValueError("tangential stability requires scal_F = n(n-1)")
    hi = 2.0 * (n + 1)
    if link.truncation_note < hi:
        raise SpectrumTruncationError(
            f"Laplace spectrum complete only up to {link.truncation_note}, "
            f"need 2(n+1) = {hi}"
        )
    nonzero = link.eigenvalues(include_zero=False)
    open_hit = any(n < ev < hi for ev in nonzero)
    closed_hit = any(n <= ev <= hi for ev in nonzero)

    if open_hit:
        return UNSTABLE
    tt = link.einstein_tt_spectrum
    if tt is None:
        # Laplace conditions alone cannot certify stability.
        return UNDECIDABLE
    tt_min = min(tt)
    if tt_min < 0:
        return UNSTABLE
    if tt_min > 0 and not closed_hit:
        return STRICTLY_STABLE
    return STABLE_NOT_STRICT


def check_admissibility_gap(link: LinkData) -> bool:
    """True iff the smallest nonzero Laplace eigenvalue satisfies lambda_1 >= n."""
    lam1 = link.lambda_1
    if lam1 is None:
        if link.truncation_note < link.n:
            raise SpectrumTruncationError(
                "no nonzero eigenvalue listed and spectrum not complete up to n"
            )
        # spectrum complete past n with no nonzero eigenvalue below: gap holds
        return True
    return lam1 >= link.n


_SPHERE_NAME = re.compile(r"^S(\d+)$")


def get_link(name: str, k_max: int = 12) -> LinkData:
    """Resolve a built-in link by name ('S3') or load a link file by path."""
    m = _SPHERE_NAME.match(name)
    if m:
        return sphere_link(int(m.group(1)), k_max)
    return parse_link_file(name)


def parse_link_file(path: str) -> LinkData:
    """Read a link from a plain-text key-value file.

    Recognized keys (one per line, '#' comments allowed):
        n = <int>
        scal_F = <float>
        vol_F = <float>
        truncation = <float>
        eig = <eigenvalue> <multiplicity>      (repeatable)
        tt = <float> [<float> ...]             (optional, repeatable)
    """
    fields: dict[str, str] = {}
    eigs: list[tuple[float, int]] = []
    tts: list[float] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed link-file line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key == "eig":
                ev, mu = val.split()
                eigs.append((float(ev), int(mu)))
            elif key == "tt":
                tts.extend(float(v) for v in val.split())
            elif key in ("n", "scal_F", "vol_F", "truncation"):
                fields[key] = val
            else:
                raise ValueError(f"unknown link-file key: {key!r}")
    for req in ("n", "scal_F", "vol_F"):
        if req not in fields:
            raise ValueError(f"link file missing required key {req!r}")
    eigs.sort()
    trunc = float(fields.get("truncation", eigs[-1][0] if eigs else 0.0))
    return LinkData(
        n=int(fields["n"]),
        scal_F=float(fields["scal_F"]),
        vol_F=float(fields["vol_F"]),
        laplace_spectrum=tuple(eigs),
        truncation_note=trunc,
        einstein_tt_spectrum=tuple(tts) if tts else None,
        name=path,
    )
