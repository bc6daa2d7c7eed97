"""Public names: every ``__all__`` entry resolves and star-imports work, the
spec is the lattice family every torus function takes, and the records behave
as frozen dataclasses."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import blochlat
from blochlat import fourier, lattice
from blochlat.averaging import Profile
from blochlat.lattice import FieldVector, LatticeSpec, SpectrumVector, build_family
from blochlat.opfunc import CertifiedFunction, Circle
from blochlat.periodic_op import BlochFiber, PeriodicKernel, bloch_fibers, reconstruct
from blochlat.periodization import (
    FiberFunction,
    ZField,
    ZKernel,
    ZKernelFC,
    apply_cf,
    apply_fc,
    periodize,
)
from blochlat.rand import random_periodic_kernel, random_zkernel, random_zkernel_fc, rng_from_seed
from blochlat.scaling import ScaleFactors
from blochlat.verify import CheckResult

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


SPEC = LatticeSpec(1.0, 1.0, 3, 3, 9, 9)

# every record with one value per field, in field order, and the names of
# the fields whose value here is the class default
RECORDS = [
    (LatticeSpec, {"eps_t": 1.0, "eps_x": 0.5, "l_t": 3, "l_x": 3, "big_l_t": 9,
                   "big_l_x": 9, "dim": 1}, ("dim",)),
    (FieldVector, {"values": np.ones(9), "tag": "block"}, ()),
    (SpectrumVector, {"values": np.ones(9), "tag": "dual_block"}, ()),
    (PeriodicKernel, {"family": SPEC, "rows": np.zeros((9, 81), dtype=complex)}, ()),
    (BlochFiber, {"k": np.zeros((1, 2)), "entries": np.zeros((1, 9, 9)), "rep": None},
     ("rep",)),
    (ZKernel, {"spec": SPEC, "radii": (0, 0), "entries": np.ones((9, 1))}, ()),
    (ZKernelFC, {"spec": SPEC, "radii": (0, 0), "entries": np.ones((9, 1))}, ()),
    (ZField, {"spec": SPEC, "kind": "fine", "coords": np.zeros((1, 2), dtype=np.int64),
              "values": np.ones(1, dtype=complex)}, ()),
    (FiberFunction, {"spec": SPEC, "matrix_at": np.zeros_like}, ()),
    (Profile, {"spec": SPEC, "radii": (1, 1), "axis_weights": (np.full(3, 1 / 3),) * 2}, ()),
    (Circle, {"center": 0j, "radius": 200.0}, ()),
    (CertifiedFunction, {"fn": np.exp, "disc_sup": np.maximum}, ()),
    (ScaleFactors, {"time": 4.0, "space": 2.0}, ()),
    (CheckResult, {"name": "volume_identity_fine", "anchor": "eqnBOvolhvol", "lhs": 0.0,
                   "rhs": 1e-12, "passed": True, "witness": None}, ("witness",)),
]


@pytest.mark.parametrize("cls, fields, defaulted", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, fields, defaulted):
    record = cls(*fields.values())
    names, values = list(fields), list(fields.values())
    # positional, keyword, mixed and default construction agree
    for other in (cls(**fields), cls(values[0], **dict(zip(names[1:], values[1:]))),
                  cls(**{n: v for n, v in fields.items() if n not in defaulted})):
        assert all(getattr(other, n) is v for n, v in fields.items())
        assert other == record and not other != record
    # too many, unknown, missing and repeated arguments are refused
    with pytest.raises(TypeError, match="arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="'extra'"):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match=f"'{names[0]}'"):
        cls(**{n: fields[n] for n in names[1:]})
    with pytest.raises(TypeError, match=f"'{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    # no field can be assigned or deleted
    for name in names:
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            delattr(record, name)
    assert all(getattr(record, n) is v for n, v in fields.items())
    # the dataclass repr, and a docstring of the class's own
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in fields.items())})"
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
    # records compare within their class; hashable fields make a hashable record
    assert record != object() and record != tuple(values)
    try:
        hash(tuple(values))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(cls(**fields)) == hash(record)
    # replace builds a new record
    copy = record.replace()
    assert copy is not record and copy == record


def test_spec_with_its_default_dim_spelled_out_is_the_same_cache_key():
    implicit = LatticeSpec(0.5, 0.25, 3, 5, 6, 10)
    explicit = LatticeSpec(0.5, 0.25, 3, 5, 6, 10, dim=1)
    assert implicit == explicit and hash(implicit) == hash(explicit)
    coords = implicit.coords("fine")
    hits = lattice._coords_cache.cache_info().hits
    assert explicit.coords("fine") is coords
    assert lattice._coords_cache.cache_info().hits == hits + 1


def test_replace_builds_a_new_record_and_validates_it():
    circle = Circle(10, 5)
    wider = circle.replace(radius=7.0)
    assert wider == Circle(10, 7.0) and circle == Circle(10, 5)
    with pytest.raises(ValueError, match="circle radius"):
        circle.replace(radius=-1)
    with pytest.raises(TypeError, match="centre"):
        circle.replace(centre=0)
    finer = SPEC.replace(eps_t=0.5)
    assert (finer.vol_f, finer.n_fine, SPEC.vol_f) == (0.5, SPEC.n_fine, 1.0)
    with pytest.raises(ValueError, match="does not divide"):
        SPEC.replace(l_t=4)
