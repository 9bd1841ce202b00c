"""Every record class of the package against the frozen dataclass it
replaced: fields, equality, hashing, repr, immutability, replace, pickling."""

import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

import ffdioph.cli  # noqa: F401  (loads every package module)
from ffdioph import Fq
from ffdioph.approx import BestError, DirichletResult, DirichletTarget, Witness
from ffdioph.config import ExperimentConfig
from ffdioph.exponents import ExponentEstimate, ExponentProfile, ProfileEntry
from ffdioph.generators import MembershipPair, PlantedInstance, PlantParams
from ffdioph.limsup import (
    CellPlane,
    IndexTuple,
    MembershipResult,
    PlaneSpec,
    TsetEnumeration,
    TsetParams,
)
from ffdioph.matrix import SeriesMatrix
from ffdioph.poly import NEG_INF, Poly
from ffdioph.record import Record
from ffdioph.series import DegValue, LaurentSeries
from ffdioph.transference import CheckReport

F2 = Fq(2)
P, Q = Poly(F2, (1,)), Poly(F2, (0, 1))
W = Witness((P,), (Q,))
D = DegValue(-3, True)
ONE = LaurentSeries.one(F2)
S = LaurentSeries.from_terms(F2, {-1: 1, -4: 1}, -10)
Y = SeriesMatrix([[S]])
IT = IndexTuple((1, 2), 3)
SPEC = PlaneSpec((ONE,), (S,), (Fraction(-1),))
ENTRY = ProfileEntry(1, D)

# one sample per record class, with the field names and defaults (REQ: none)
# of the dataclass it replaced
REQ = dataclasses.MISSING
SAMPLES = {
    DegValue: (D, {"value": REQ, "censored": False}),
    DirichletTarget: (DirichletTarget(1, 1, (2, 2)), {"m": REQ, "n": REQ, "values": REQ}),
    Witness: (W, {"p": REQ, "q": REQ}),
    DirichletResult: (DirichletResult(W, True, (D,)), {"witness": REQ, "strict_also": REQ, "error_degs": REQ}),
    BestError: (BestError(D, W, "kernel"), {"B": REQ, "witness": REQ, "method": REQ, "homogeneous": None}),
    ProfileEntry: (ENTRY, {"T": REQ, "B": REQ}),
    ExponentProfile: (
        ExponentProfile("standard", 1, 1, 1, (ENTRY,)),
        {"kind": REQ, "m": REQ, "n": REQ, "T_max": REQ, "entries": REQ, "homogeneous": None},
    ),
    ExponentEstimate: (
        ExponentEstimate(Fraction(3, 2), Fraction(1), (1, 2), False, True),
        {"omega_proxy": REQ, "omega_hat_proxy": REQ, "window": REQ, "infinite": REQ, "censored": REQ},
    ),
    CheckReport: (
        CheckReport(name="dirichlet_bound", holds=True, exact=True, details={"offset": 0}),
        {"name": REQ, "holds": REQ, "exact": REQ, "tolerance": None, "lhs": None, "rhs": None,
         "details": {}, "note": ""},
    ),
    TsetParams: (TsetParams(1, 2, Fraction(3, 2)), {"m": REQ, "n": REQ, "eta": REQ, "mode": "multiplicative"}),
    IndexTuple: (IT, {"t": REQ, "sigma": REQ}),
    TsetEnumeration: (TsetEnumeration((IT,), {(1, 2): 1}), {"tuples": REQ, "multiplicity": REQ}),
    MembershipResult: (MembershipResult(D, True, Fraction(-1, 2)), {"deg": REQ, "member": REQ, "threshold": REQ}),
    PlaneSpec: (SPEC, {"b": REQ, "c": REQ, "log_eps": REQ}),
    CellPlane: (
        CellPlane(IT, W, Fraction(1, 8), SPEC, Fraction(0), True, -10, None),
        {"t": REQ, "alpha": REQ, "tau": REQ, "spec": REQ, "log_delta": REQ, "gate": REQ,
         "floor": REQ, "theta": REQ},
    ),
    PlantParams: (
        PlantParams(F2, 1, 2, Fraction(2), Fraction(1, 2), 4, -80),
        {"field": REQ, "m": REQ, "n": REQ, "eta": REQ, "eps": REQ, "T": REQ, "floor": REQ},
    ),
    PlantedInstance: (
        PlantedInstance(Y, (S,), W, 4, Fraction(2), Fraction(1, 2)),
        {"Y": REQ, "theta": REQ, "alpha": REQ, "T": REQ, "eta": REQ, "eps": REQ},
    ),
    MembershipPair: (
        MembershipPair(Y, (S,), IT, Fraction(1, 8), W, W),
        {"Y": REQ, "theta": REQ, "t": REQ, "tau": REQ, "alpha": REQ, "alpha2": REQ},
    ),
    ExperimentConfig: (
        ExperimentConfig(suite="limsup", T_max=8),
        {"suite": "estimate", "seed": 0, "workers": 1, "field": "p=2", "dims": (1, 1), "floor": -80,
         "T_max": 24, "Y": {"kind": "random"}, "theta": "0", "eta": Fraction(1), "eps": Fraction(1),
         "tau": None, "tol_bz": Fraction(3, 10), "tol_dyson": Fraction(1, 4), "method": "kernel",
         "profile_kind": "standard", "instances": 20, "sigma_bound": 8, "uv_budget": 20,
         "mode": "multiplicative", "mult_T_max": 10, "plane_samples": 20, "plant_T": 4,
         "sigma_threshold": 8},
    ),
}
# records with a dict or SeriesMatrix field, unhashable as their dataclasses were
UNHASHABLE = {CheckReport, TsetEnumeration, ExperimentConfig, PlantedInstance, MembershipPair}
ids = [cls.__name__ for cls in SAMPLES]


def values(rec):
    return {name: getattr(rec, name) for name in rec._fields}


def as_dataclass(rec):
    """The frozen dataclass the record replaced, with the same values."""
    cls = type(rec)
    dc = dataclasses.make_dataclass(cls.__name__, rec._fields, frozen=True)
    dc.__qualname__ = cls.__qualname__
    return dc(**values(rec))


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_class_has_a_sample():
    package = {c for c in subclasses(Record) if c.__module__.startswith("ffdioph.")}
    assert package == set(SAMPLES)
    assert len(SAMPLES) == 19


@pytest.mark.parametrize("cls", SAMPLES, ids=ids)
def test_fields_and_defaults(cls):
    rec, want = SAMPLES[cls]
    assert rec._fields == tuple(want)
    assert list(inspect.signature(cls).parameters) == list(want)
    given = {name: getattr(rec, name) for name, v in want.items() if v is REQ}
    built = cls(**given)
    assert values(built) == {name: given.get(name, v) for name, v in want.items()}
    if cls in (CheckReport, ExperimentConfig):
        # details and Y: a fresh default per instance
        name = "details" if cls is CheckReport else "Y"
        assert getattr(built, name) is not getattr(cls(**given), name)


@pytest.mark.parametrize("cls", SAMPLES, ids=ids)
def test_equality_by_value_and_type(cls):
    rec = SAMPLES[cls][0]
    twin = cls(**values(rec))
    assert twin is not rec and twin == rec and not twin != rec
    other = object.__new__(cls)  # one value changed, past any validation
    other.__dict__.update({**values(rec), rec._fields[-1]: "changed"})
    assert other != rec and not other == rec
    # the same fields and values under another record type are not equal
    lookalike = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(rec._fields, "object")})
    assert lookalike(**values(rec)) != rec
    assert rec != tuple(values(rec).values())


@pytest.mark.parametrize("cls", SAMPLES, ids=ids)
def test_equal_records_hash_equal(cls):
    rec = SAMPLES[cls][0]
    twin = cls(**values(rec))
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
        with pytest.raises(TypeError):
            hash(as_dataclass(rec))
    else:
        assert hash(twin) == hash(rec)
        assert len({rec, twin}) == 1


@pytest.mark.parametrize("cls", SAMPLES, ids=ids)
def test_repr_is_the_dataclass_repr(cls):
    rec = SAMPLES[cls][0]
    if cls is DegValue:
        # DegValue keeps its own repr
        assert repr(rec) == "DegValue(<=-3)"
        assert repr(DegValue(NEG_INF)) == "DegValue(-inf)"
    else:
        assert repr(rec) == repr(as_dataclass(rec))


@pytest.mark.parametrize("cls", SAMPLES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls):
    rec = SAMPLES[cls][0]
    before = values(rec)
    for name in (rec._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert values(rec) == before


@pytest.mark.parametrize("cls", SAMPLES, ids=ids)
def test_pickle_round_trip(cls):
    rec = SAMPLES[cls][0]
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec


def test_replace_builds_a_new_record():
    rec = SAMPLES[BestError][0]
    new = rec.replace(method="brute")
    assert new is not rec and new.method == "brute" and rec.method == "kernel"
    assert new.B is rec.B and new.witness is rec.witness
    with pytest.raises(TypeError):
        rec.replace(unknown=1)


@pytest.mark.parametrize(
    "rec, change",
    [
        (SAMPLES[DirichletTarget][0], {"values": (2, 1)}),  # halves do not balance
        (SAMPLES[Witness][0], {"q": (Poly.zero(F2),)}),  # zero q
        (SAMPLES[PlantParams][0], {"m": 2}),  # neither m nor n is 1
        (SAMPLES[TsetParams][0], {"eta": Fraction(1, 2)}),  # eta below 1
        (SAMPLES[TsetParams][0], {"mode": "unknown"}),
        (SAMPLES[PlaneSpec][0], {"log_eps": ()}),  # one threshold per row
        (SAMPLES[PlaneSpec][0], {"b": (S,)}),  # sup degree not 0
    ],
    ids=["DirichletTarget", "Witness", "PlantParams", "TsetParams-eta", "TsetParams-mode", "PlaneSpec-rows", "PlaneSpec-b"],
)
def test_replace_reruns_validation(rec, change):
    with pytest.raises(ValueError):
        rec.replace(**change)


def test_post_init_normalises_through_object_setattr():
    par = PlantParams(F2, 1, 2, 2, "1/2", 4, -80)
    assert par.eta == Fraction(2) and type(par.eta) is Fraction and par.eps == Fraction(1, 2)
    assert TsetParams(1, 2, 3).eta == Fraction(3)
    assert par.replace(eta=3).eta == Fraction(3)


def test_config_field_cache_is_not_a_field():
    cfg = ExperimentConfig.from_dict({"field": "p=3"})
    assert cfg.fq() is cfg.fq()
    assert cfg == ExperimentConfig(field="p=3") and "_fq" not in cfg._fields
    assert "_fq" not in repr(cfg)


def test_init_binds_fields_like_a_signature():
    assert IndexTuple(t=(1,), sigma=1) == IndexTuple((1,), sigma=1) == IndexTuple((1,), 1)
    assert ExponentProfile("standard", 1, 1, 0, ()).homogeneous is None
    for args, kwargs in [
        (((1,),), {}),  # sigma missing
        (((1,), 1, 2), {}),  # one value too many
        (((1,), 1), {"t": (1,)}),  # t twice
        (((1,), 1), {"tau": 1}),  # no such field
    ]:
        with pytest.raises(TypeError):
            IndexTuple(*args, **kwargs)


def test_reports_get_a_fresh_details_dict():
    a = CheckReport(name="a", holds=True, exact=True)
    b = CheckReport(name="b", holds=True, exact=True)
    assert a.details == {} and a.details is not b.details
