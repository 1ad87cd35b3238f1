import itertools
import random
import shlex
import subprocess
import sysconfig
from pathlib import Path

import pytest

from setfam import engines
from setfam.engines.fastcore import Kernels
from setfam.errors import UniverseMismatchError
from setfam.family import Family, apply_permutation, mask_of


def fam(n, *sets) -> Family:
    return Family.of_sets(n, sets)


def are_isomorphic_bruteforce(F: Family, G: Family) -> bool:
    """Reference isomorphism check trying all n! permutations."""
    if F.n != G.n:
        raise UniverseMismatchError(f"universe mismatch: {F.n} vs {G.n}")
    if len(F) != len(G):
        return False
    for perm in itertools.permutations(range(1, F.n + 1)):
        if apply_permutation(F, perm) == G:
            return True
    return False


def random_family(rng: random.Random, n: int, max_size: int = 12, k: int | None = None) -> Family:
    """Uniformly sloppy random family; k restricts to one layer."""
    if k is None:
        pool = list(range(1 << n))
    else:
        pool = [mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k)]
    size = rng.randint(0, min(max_size, len(pool)))
    return Family.of_masks(n, rng.sample(pool, size))


def random_t_intersecting(rng: random.Random, n: int, t: int, k: int | None = None,
                          max_size: int = 10) -> Family:
    """Greedy filter: keeps a random candidate if it stays t-intersecting."""
    if k is None:
        pool = [m for m in range(1 << n) if m.bit_count() >= t]
    else:
        pool = [mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k)]
        pool = [m for m in pool if m.bit_count() >= t]
    rng.shuffle(pool)
    chosen: list[int] = []
    for m in pool:
        if len(chosen) >= max_size:
            break
        if all((m & c).bit_count() >= t for c in chosen):
            chosen.append(m)
    keep = rng.randint(0, len(chosen))
    return Family.of_masks(n, chosen[:keep])


def random_s_union(rng: random.Random, n: int, s: int, max_size: int = 12) -> Family:
    pool = [m for m in range(1 << n) if m.bit_count() <= s]
    rng.shuffle(pool)
    chosen: list[int] = []
    for m in pool:
        if len(chosen) >= max_size:
            break
        if all((m | c).bit_count() <= s for c in chosen):
            chosen.append(m)
    return Family.of_masks(n, chosen)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory) -> Kernels:
    """The compiled kernels, built from the current fastcore.c into a
    temporary directory (never into src/, where a library would switch the
    default backend).  Skips only when no C compiler works."""
    source = Path(engines.__file__).with_name("fastcore.c")
    lib = tmp_path_factory.mktemp("fastcore") / "fastcore.so"
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        subprocess.run(
            [*cc, "-O3", "-shared", "-fPIC", "-o", str(lib), str(source)],
            check=True, capture_output=True, text=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        pytest.skip(f"cannot compile fastcore.c: {getattr(exc, 'stderr', None) or exc}")
    return Kernels(str(lib))


@pytest.fixture
def compiled(compiled_kernels, monkeypatch) -> Kernels:
    """Installs the compiled kernels as the default backend, as if their
    library sat next to the package."""
    monkeypatch.setattr(engines, "_compiled", compiled_kernels)
    monkeypatch.setattr(engines, "HAVE_COMPILED", True)
    monkeypatch.setattr(engines, "DEFAULT_BACKEND", "compiled")
    monkeypatch.setattr(engines, "BACKENDS", ("compiled", "python"))
    return compiled_kernels
