"""Public names: every ``__all__`` entry resolves and star-imports work, and
the spec is the lattice family every torus function takes."""

import importlib
import pkgutil

import numpy as np
import pytest

import blochlat
from blochlat import fourier, lattice
from blochlat.lattice import LatticeSpec, build_family
from blochlat.periodic_op import bloch_fibers, reconstruct
from blochlat.periodization import apply_cf, apply_fc, periodize
from blochlat.rand import random_periodic_kernel, random_zkernel, random_zkernel_fc, rng_from_seed

MODULES = ["blochlat"] + [
    f"blochlat.{info.name}" for info in pkgutil.iter_modules(blochlat.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


def test_the_spec_is_the_lattice_family():
    spec = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, 1)
    assert build_family(spec) is spec
    rng = rng_from_seed(0)
    torus = periodize(random_zkernel(spec, (1, 1), rng), spec)
    assert torus.family is spec
    assert reconstruct(spec, bloch_fibers(torus)).family is spec
    assert random_periodic_kernel(spec, rng).family is spec
    b = random_zkernel_fc(spec, (1, 1), rng)
    fine = apply_fc(spec, b, spec.field("coarse", np.ones(spec.n_coarse)))
    assert apply_cf(spec, b, fine).values.shape == (spec.n_coarse,)
    assert fourier.transform(spec, fine).tag == "dual_fine"
    for module in (blochlat, lattice):
        assert "LatticeFamily" not in module.__all__
        assert not hasattr(module, "LatticeFamily")
