"""Fixed-point data models of concrete contact circle actions.

A model is a finite table of exact numbers per fixed component: dimension,
tangential and normal Chern roots (with torsion eigenvalues), the constant
moment pairing, and the top pairing values of the contact volume monomials.
Presets cover spheres with pairwise coprime speeds (the free circle, the round
odd spheres, weighted three-spheres) and the prequantum circle bundle over CP^n;
arbitrary component tables load from a JSON document with exact rationals as strings.

Every value is a `CyclotomicNumber` at the pi-grade of its field: a curvature
has grade 0 and the pairing value of a monomial J grade |J| + 1, so a pairing
value c stands for c pi^(|J| + 1).  The grades are read in one place,
`_parse_scalar`, which checks each against its field, and written in one,
the document writers.

All preset pairing values are derived from the `oracle.ball_integral`
Stokes computation (magnitude (2 pi)^{k+1}, orientation applied uniformly)
or from orbit lengths (2 pi divided by the speed of the circle action on
the fixed circle).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain

from .scalars import CyclotomicNumber, ScalarError
from .forms import ChernRoot


class ModelError(ValueError):
    """Raised when a model document violates the component invariants."""


IDENTITY = Fraction(0, 1)


@dataclass
class FixedComponentData:
    """One connected component of a fixed-point set, as exact numbers."""

    dim_odd: int
    generators: tuple
    tangential: list
    normal: list
    mu: Fraction
    reeb_weight: tuple
    pairing: dict  # generator exponent tuple J -> CyclotomicNumber, pi-grade |J| + 1

    @property
    def k(self):
        return (self.dim_odd - 1) // 2

    def validate(self, rank, ambient_n, at, path="component"):
        if self.dim_odd < 1 or self.dim_odd % 2 == 0:
            raise ModelError(f"{path}.dim: component dimension must be odd and positive")
        if self.mu <= 0:
            raise ModelError(f"{path}.moment.mu: ellipticity violated, moment must be "
                             f"positive (got {self.mu})")
        if len(self.reeb_weight) != rank:
            raise ModelError(f"{path}.moment.reeb_weight: expected {rank} entries")
        if self.k + len(self.normal) != ambient_n:
            raise ModelError(
                f"{path}: dimension bookkeeping failed: k={self.k} plus "
                f"{len(self.normal)} normal roots must equal ambient rank {ambient_n}")
        for key, roots in (("tangential_roots", self.tangential), ("normal_roots", self.normal)):
            for i, root in enumerate(roots):
                if len(root.weight) != rank:
                    raise ModelError(f"{path}.{key}[{i}].weight: expected {rank} entries")
        for i, root in enumerate(self.tangential):
            if not root.is_tangential():
                raise ModelError(f"{path}.tangential_roots[{i}].eig: tangential roots "
                                 f"must have eigenvalue 1")
            if len(root.curvature) != len(self.generators):
                raise ModelError(f"{path}.tangential_roots[{i}].curv: expected "
                                 f"{len(self.generators)} coefficients")
        for i, root in enumerate(self.normal):
            if at == IDENTITY:
                raise ModelError(f"{path}.normal_roots[{i}]: the identity fixes all of M, "
                                 f"so its components have no normal directions")
            if at is not None and root.is_tangential():
                raise ModelError(
                    f"{path}.normal_roots[{i}].eig: normal eigenvalue 1 at a fixed "
                    f"component means the direction is tangential (fixed-set mismatch)")
        for mono, value in self.pairing.items():
            if len(mono) != len(self.generators):
                raise ModelError(f"{path}.pairing: monomial {mono} does not match the "
                                 f"generator count")
            if sum(mono) == self.k and value.is_zero():
                raise ModelError(f"{path}.pairing: top pairing value for {mono} is zero")
        if not any(sum(mono) == self.k for mono in self.pairing):
            raise ModelError(f"{path}.pairing: no entry of top degree {self.k}")


@dataclass
class FiberFamily:
    """A circle-fiber component that exists over every torsion point.

    The fiber over a base fixed point appears at the pair (g0, g0^sigma);
    its normal roots carry covector weights on the two torus factors and the
    eigenvalue at a concrete pair follows from those weights.
    """

    sigma: int
    component: FixedComponentData


@dataclass
class ContactModel:
    """Everything the engine needs about one elliptic contact circle action."""

    rank: int
    ambient_n: int
    model_id: str
    components: dict = field(default_factory=dict)  # torsion point -> [components]
    fiber_families: list = field(default_factory=list)  # rank-2 only

    @property
    def torsion_support(self):
        return sorted(self.components, key=lambda t: (t.denominator, t.numerator))

    def validate(self):
        if self.rank not in (1, 2):
            raise ModelError("rank: only torus ranks 1 and 2 are supported")
        if self.rank == 1:
            if IDENTITY not in self.components:
                raise ModelError("components: the identity must always carry components")
            for at, comps in self.components.items():
                if not comps:
                    raise ModelError(f"components[{at}]: empty component list; drop the point")
                for idx, comp in enumerate(comps):
                    comp.validate(self.rank, self.ambient_n, at,
                                  path=f"components[{at}][{idx}]")
        else:
            for idx, fam in enumerate(self.fiber_families):
                fam.component.validate(self.rank, self.ambient_n, None,
                                       path=f"fiber_families[{idx}]")
        return self


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def _sphere(weights, orientation, model_id):
    """The circle acting on the unit sphere S(a) in C^{n+1} with pairwise coprime speeds a.

    * Identity, dimension 2n+1: the quotient's tangent bundle pulls back to
      n+1 line factors of curvature i * a_j * dA (the weighted Euler
      sequence), weight 0 as the quotient action is trivial.  The top
      pairing is the Stokes value of alpha (dA)^n, (2 pi)^{n+1} over the
      product of the speeds.  The circle (n = 0) has no generator and no roots.
    * At p/a_j, p = 1..a_j - 1 (coprime speeds: no other point fixes
      anything): the j-th axis circle.  Its normal direction l != j has
      weight -a_l and eigenvalue the (-a_l)-th power of the torsion point;
      its pairing is the orbit length, 2 pi over the rotation speed a_j.
    """
    if any(a < 1 for a in weights):
        raise ModelError("weights must be positive")
    if math.lcm(*weights) != math.prod(weights):  # some pair shares a factor
        a, b = next((a, b) for j, a in enumerate(weights) for b in weights[j + 1:]
                    if math.gcd(a, b) != 1)
        raise ModelError(f"weights ({a}, {b}) are not coprime: orbifold strata "
                         f"beyond the supported scope")
    n = len(weights) - 1
    roots = {a: ChernRoot(curvature=(CyclotomicNumber(4, {1: a}),),
                          weight=(0,)) for a in set(weights)}  # one per distinct speed
    identity = FixedComponentData(
        dim_odd=2 * n + 1, generators=("dA",) if n else (),
        tangential=[roots[a] for a in weights] if n else [], normal=[],
        mu=Fraction(1), reeb_weight=(1,),
        pairing={(n,) if n else (): CyclotomicNumber.from_rational(
            Fraction(orientation * 2 ** (n + 1), math.prod(weights)))},
    )
    components = {IDENTITY: [identity]}
    for j, a in enumerate(weights):
        for p in range(1, a):
            at = Fraction(p, a)
            components[at] = [FixedComponentData(
                dim_odd=1, generators=(), tangential=[],
                normal=[ChernRoot(curvature=(), weight=(-b,), eigenvalue_exponent=(-b * at) % 1)
                        for l, b in enumerate(weights) if l != j],
                mu=Fraction(1), reeb_weight=(1,),
                pairing={(): CyclotomicNumber.from_rational(Fraction(2 * orientation, a))},
            )]
    return ContactModel(rank=1, ambient_n=n, model_id=model_id,
                        components=components).validate()


def preset_circle(orientation=1):
    """The free circle acting on itself: the sphere S(1) in C."""
    return _sphere((1,), orientation, "circle")


def preset_hopf_sphere(n, orientation=1):
    """The round sphere S^{2n+1} with its free diagonal circle action: speeds (1, ..., 1)."""
    if n < 1:
        raise ModelError("hopf sphere needs n >= 1")
    return _sphere((1,) * (n + 1), orientation, f"hopf-{n}")


def preset_weighted_s3(a, b, orientation=1):
    """S^3 with the circle acting with coprime speeds (a, b) on the two axes."""
    a, b = int(a), int(b)
    return _sphere((a, b), orientation, f"weighted-s3-{a}-{b}")


def preset_prequantum_cpn(n, orientation=1):
    """The unit circle bundle over CP^n with the extra base rotation.

    Rank-2 torus: the base rotation (variable X) times the principal circle
    (variable phi).  The principal reduction is the round sphere model; the
    base rotation has n+1 isolated fixed points with lift weights 0..n, and
    the fiber over the j-th one appears at pairs (g0, g0^j).  Its n normal
    directions carry covector weights (l, -1) for l != j, and the moment
    covector is (j, -1).
    """
    if n < 1:
        raise ModelError("prequantum model needs n >= 1")
    families = []
    for j in range(n + 1):
        comp = FixedComponentData(
            dim_odd=1, generators=(),
            tangential=[],
            normal=[ChernRoot(curvature=(), weight=(l, -1)) for l in range(n + 1) if l != j],
            mu=Fraction(1), reeb_weight=(j, -1),
            pairing={(): CyclotomicNumber.from_rational(2 * orientation)},
        )
        families.append(FiberFamily(sigma=j, component=comp))
    return ContactModel(rank=2, ambient_n=n, model_id=f"prequantum-cp{n}",
                        fiber_families=families).validate()


def scaled_model(model, lam):
    """Rescale the contact form by a positive rational factor.

    The moment constants multiply by lam, the d-alpha generator absorbs a
    factor lam (so stored curvature coefficients divide by it), and a top
    pairing of degree |J| picks up lam^{|J|+1}.  Germs are invariant under
    this transformation; the engine test suite asserts it bit for bit.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ModelError("scaling factor must be positive")
    inv = 1 / lam

    def scale_root(root):
        return replace(root, curvature=tuple(c * inv for c in root.curvature))

    def scale_component(comp):
        return FixedComponentData(
            dim_odd=comp.dim_odd, generators=comp.generators,
            tangential=[scale_root(r) for r in comp.tangential],
            normal=[scale_root(r) for r in comp.normal],
            mu=comp.mu * lam, reeb_weight=comp.reeb_weight,
            pairing={mono: value * lam ** (sum(mono) + 1)
                     for mono, value in comp.pairing.items()},
        )

    return ContactModel(
        rank=model.rank, ambient_n=model.ambient_n, model_id=model.model_id,
        components={at: [scale_component(c) for c in comps]
                    for at, comps in model.components.items()},
        fiber_families=[FiberFamily(f.sigma, scale_component(f.component))
                        for f in model.fiber_families],
    )


# ----------------------------------------------------------------------
# document IO (exact rationals as strings; floats are rejected)
# ----------------------------------------------------------------------

def _parse_fraction(text, path):
    if isinstance(text, (bool, float)):
        raise ModelError(f"{path}: expected an integer or an exact 'p/q' string, "
                         f"got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"{path}: malformed rational {text!r} ({exc})") from None


def _parse_scalar(text, path, grade):
    """The value of scalar text whose field has pi-grade `grade`; zero fits every grade."""
    if not isinstance(text, str):
        raise ModelError(f"{path}: expected a scalar string, got {text!r}")
    try:
        value, read = CyclotomicNumber.from_text(text)
    except ScalarError as exc:
        shown = repr(text) if len(text) <= 60 else \
            f"{text[:24]!r}...{text[-24:]!r} of {len(text)} characters"
        raise ModelError(f"{path}: malformed scalar {shown} ({exc})") from None
    if value and read != grade:
        raise ModelError(f"{path}: this field has pi-grade {grade}, got {read}")
    return value


def _get(doc, key, path):
    if key not in doc:
        raise ModelError(f"{path}{key}: missing field")
    return doc[key]


def _object(doc, path):
    if not isinstance(doc, dict):
        raise ModelError(f"{path or 'model document'}: expected an object, got {doc!r}")
    return doc


def _list(doc, key, path, required=False):
    value = _get(doc, key, path) if required else doc.get(key, [])
    if not isinstance(value, list):
        raise ModelError(f"{path}{key}: expected a list, got {value!r}")
    return value


def _int(value, path):
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise ModelError(f"{path}: expected an integer, got {value!r}")


def _ints(value, path):
    """An integer or a list of integers, as a tuple."""
    return tuple(_int(v, path) for v in (value if isinstance(value, (list, tuple)) else [value]))


def _root_from_doc(doc, path):
    doc = _object(doc, path)
    curv = tuple(_parse_scalar(c, f"{path}.curv[{i}]", 0)
                 for i, c in enumerate(_list(doc, "curv", f"{path}.")))
    weight = _ints(doc.get("weight", 0), f"{path}.weight")
    eig = _parse_fraction(doc.get("eig", "0/1"), f"{path}.eig") % 1
    return ChernRoot(curvature=curv, weight=weight, eigenvalue_exponent=eig)


def _root_to_doc(root):
    return {
        "curv": [c.to_text(pi=0) for c in root.curvature],
        "weight": list(root.weight) if len(root.weight) > 1 else root.weight[0],
        "eig": str(Fraction(root.eigenvalue_exponent) % 1),
    }


def _component_from_doc(doc, rank, path):
    doc = _object(doc, path)
    dim = _int(_get(doc, "dim", f"{path}."), f"{path}.dim")
    roots = {key: [_root_from_doc(r, f"{path}.{key}[{i}]")
                   for i, r in enumerate(_list(doc, key, f"{path}."))]
             for key in ("tangential_roots", "normal_roots")}
    pairing = {}
    for i, p in enumerate(_list(doc, "pairing", f"{path}.")):
        where = f"{path}.pairing[{i}]"
        mono = _list(_object(p, where), "mono", f"{where}.", required=True)
        mono = _ints(mono, f"{where}.mono")
        pairing[mono] = _parse_scalar(_get(p, "value", f"{where}."), f"{where}.value",
                                      sum(mono) + 1)
    gen_count = None
    for key, length in [(key, len(r.curvature)) for key, rs in roots.items() for r in rs] \
            + [("pairing", len(mono)) for mono in pairing]:
        gen_count = length if gen_count is None else gen_count
        if length != gen_count:
            noun = "monomial" if key == "pairing" else "curvature vector"
            raise ModelError(f"{path}.{key}: inconsistent {noun} lengths")
    gen_count = gen_count or 0
    generators = tuple(["dA"] + [f"e{i}" for i in range(1, gen_count)])[:gen_count]
    moment = _object(doc.get("moment", {}), f"{path}.moment")
    return FixedComponentData(
        dim_odd=dim, generators=generators,
        tangential=roots["tangential_roots"], normal=roots["normal_roots"],
        mu=_parse_fraction(moment.get("mu", "1"), f"{path}.moment.mu"),
        reeb_weight=_ints(moment.get("reeb_weight", [1] * rank), f"{path}.moment.reeb_weight"),
        pairing=pairing,
    )


def _component_to_doc(comp, at=None):
    doc = {}
    if at is not None:
        doc["at"] = str(at)
    doc.update({
        "dim": comp.dim_odd,
        "tangential_roots": [_root_to_doc(r) for r in comp.tangential],
        "normal_roots": [_root_to_doc(r) for r in comp.normal],
        "moment": {"mu": str(comp.mu),
                   "reeb_weight": (list(comp.reeb_weight) if len(comp.reeb_weight) > 1
                                   else comp.reeb_weight[0])},
        "pairing": [{"mono": list(mono), "value": value.to_text(pi=sum(mono) + 1)}
                    for mono, value in sorted(comp.pairing.items())],
    })
    return doc


def model_from_document(doc, model_id=None):
    """Build and validate a model from its JSON-compatible document.

    A field of the wrong shape raises `ModelError` naming the field.
    """
    doc = _object(doc, "")
    rank = _int(doc.get("rank", 1), "rank")
    ambient = _int(_get(doc, "ambient_n", ""), "ambient_n")
    mid = model_id or doc.get("model_id", "model")
    if rank == 1:
        components = {}
        for i, cdoc in enumerate(_list(doc, "components", "")):
            comp = _component_from_doc(cdoc, rank, f"components[{i}]")
            at = _parse_fraction(cdoc.get("at", "0/1"), f"components[{i}].at") % 1
            components.setdefault(at, []).append(comp)
        model = ContactModel(rank=1, ambient_n=ambient, model_id=mid,
                             components=components)
    elif rank == 2:
        families = []
        for i, f in enumerate(_list(doc, "fiber_families", "")):
            comp = _component_from_doc(f, rank, f"fiber_families[{i}]")
            sigma = _int(_get(f, "sigma", f"fiber_families[{i}]."), f"fiber_families[{i}].sigma")
            families.append(FiberFamily(sigma=sigma, component=comp))
        model = ContactModel(rank=2, ambient_n=ambient, model_id=mid,
                             fiber_families=families)
    else:
        raise ModelError("rank: only 1 and 2 are supported")
    return model.validate()


def model_to_document(model):
    if model.rank == 1:
        return {
            "rank": 1,
            "ambient_n": model.ambient_n,
            "model_id": model.model_id,
            "components": [
                _component_to_doc(comp, at=at)
                for at in model.torsion_support
                for comp in model.components[at]
            ],
        }
    return {
        "rank": 2,
        "ambient_n": model.ambient_n,
        "model_id": model.model_id,
        "fiber_families": [
            {"sigma": fam.sigma, **_component_to_doc(fam.component)}
            for fam in model.fiber_families
        ],
    }


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_float=_reject_float)
        except RecursionError:
            raise ModelError("model document is nested too deeply") from None
    return model_from_document(doc)


def _reject_float(text):
    raise ModelError(f"model documents accept exact rationals only, got float {text}")


def dump_model(model, path):
    with open(path, "w") as fh:
        fh.write(document_text(model_to_document(model)) + "\n")


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(depth):
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def document_text(doc, depth=0):
    """`doc` as `json.dumps(doc, indent=2, sort_keys=True)` writes it, byte for byte.

    Python walks only containers of containers (dict keys are str).  A container of
    scalars, or a list of non-empty flat dicts, is one C-encoder call whose item
    separator holds the newline and indent; in the list, `},` + newline + indent + `{`
    is a seam between dicts, as no encoded string holds a raw newline.
    """
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return _flat_encoder(0)(doc)
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if _SCALARS.issuperset(map(type, doc.values() if isinstance(doc, dict) else doc)):
        text = _flat_encoder(depth + 1)(doc)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if isinstance(doc, dict):
        body = ("," + inner).join(json.encoder.encode_basestring_ascii(k) + ": "
                                  + document_text(v, depth + 1) for k, v in sorted(doc.items()))
        return "{" + inner + body + pad + "}"
    if ({dict}.issuperset(map(type, doc)) and all(doc)
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, doc))))):
        deeper = inner + "  "
        body = _flat_encoder(depth + 2)(doc)[2:-2].replace(
            "}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + body + inner + "}" + pad + "]"
    return "[" + inner + ("," + inner).join(document_text(v, depth + 1) for v in doc) + pad + "]"
