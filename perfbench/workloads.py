"""The three workloads: their inputs, set-up and operations.

A workload's inputs are group specs drawn from fixed pools by the seed.
Set-up builds the groups.  One round runs every operation of the workload
once, in a fixed order, and checks each output with ``check`` (never with
the program's own verifier and never against stored output).
"""

from __future__ import annotations

import json
import random

import check

# Exponent-4 groups of nilpotency class 3 and 4 (orders 64 and 128).  The
# class-3 group realizes through the chief-chain fallback; the class-4
# group is the open case no composition basis is known for.
CLS3_64 = (("a", "b"), ("a^4", "b^4", "a*b*a*b*a*b*a*b",
                        "a*b^-1*a*b^-1*a*b^-1*a*b^-1", "[b,a]^2", "[a^2,b]"))
CLS4_128 = (("a", "b"), ("a^4", "b^4", "a*b*a*b*a*b*a*b",
                         "a*b^-1*a*b^-1*a*b^-1*a*b^-1", "[[b,a],b]",
                         "[a^2,b^2]"))
PRESENTED = {"CLS3_64": CLS3_64, "CLS4_128": CLS4_128}

# One pool per rung; the first entry is the group each rung is named after.
# Every entry has exponent 4 and is realized by realize_exponent4.
CERTIFY_LADDER = (
    ("Q8", "D8", "C4xC2"),
    ("C4xC4", "Q8xC2", "D8xC2", "C4xC2xC2"),
    ("Q8xC4", "D8xC4", "C4xC4xC2", "Q8xC2xC2", "D8xC2xC2"),
    ("Q8xQ8", "D8xD8", "Q8xD8", "C4xC4xC4", "Q8xC4xC2", "D8xC4xC2"),
    ("CLS3_64",),
)
OPEN_CASE = "CLS4_128"

# encode-large: three order-256 rungs whose first composition basis passes
# the translation conditions.
ENCODE_LADDER = (
    ("C4xC4xC4xC2xC2", "C4xC4xC4xC4", "C4xC4xC2xC2xC2xC2"),
    ("Q8xQ8xC4", "D8xD8xC4", "Q8xD8xC4"),
    ("Q8xC4xC4xC2", "D8xC4xC4xC2", "Q8xQ8xC2xC2"),
)

# search: (label, group, characteristic exponent m, budget or None)
SEARCHES = (
    ("hit", "C8xC2", 1, None),
    ("exhaust", "C8", 1, None),
    ("char4", "C8xC2", 2, 1500),
)
HIT_REPEATS = 3


def atoms(spec):
    return tuple(spec.split("x")) if spec not in PRESENTED else (spec,)


def relators_for(fx, spec, G):
    """Defining relators of a catalog product or of a named presentation.
    Atoms the check module has no presentation for (the SG fixtures) take
    theirs from the catalog, which is where those groups are defined."""
    extra = dict(PRESENTED)
    for atom in atoms(spec):
        if atom not in check.ATOM_PRESENTATIONS and atom not in extra:
            pres = fx.groups.catalog_presentation(atom)
            extra[atom] = (pres.gens, pres.relator_text)
    return check.product_relators(atoms(spec), G.gen_names, extra)


def build(fx, spec):
    if spec in PRESENTED:
        gens, rels = PRESENTED[spec]
        text = f"gens: {' '.join(gens)}\nrels: {', '.join(rels)}"
        return fx.groups.build_group(fx.parsing.parse_presentation_text(text))
    return fx.groups.build_group(spec)


def build_all(fx, specs):
    return {spec: build(fx, spec) for spec in specs}


def spec_name(doc_spec):
    """The benchmark's name for a certificate's group field."""
    if isinstance(doc_spec, str):
        return doc_spec
    for name, (gens, rels) in PRESENTED.items():
        if list(gens) == doc_spec["gens"] and list(rels) == \
                doc_spec["relators"]:
            return name
    raise ValueError(f"unknown group {doc_spec!r}")


def check_doc(rnd, fx, text, groups=None):
    """Independent check of one certificate (JSON text or dict)."""
    groups = groups or {}
    try:
        doc = json.loads(text) if isinstance(text, str) else text
        target_spec = spec_name(doc["group"])
        ambient_spec = spec_name(doc["ambient"])
        target = groups.get(target_spec) or build(fx, target_spec)
        ambient = groups.get(ambient_spec) or build(fx, ambient_spec)
        problems = check.check_certificate(
            doc, ambient, target, relators_for(fx, target_spec, target))
    except Exception as exc:  # an output that cannot be checked is wrong
        target_spec, problems = "unreadable", [f"{type(exc).__name__}: {exc}"]
    rnd.expect(not problems, f"{target_spec} certificate: {problems}")


# -- certify ------------------------------------------------------------------


class Certify:
    name = "certify"
    parts = ("realize", "verify", "fixtures")

    @staticmethod
    def inputs(seed):
        rng = random.Random(seed)
        return [rng.choice(pool) for pool in CERTIFY_LADDER] + [OPEN_CASE]

    @staticmethod
    def run(rnd, fx, groups, specs):
        ladder, open_case = specs[:-1], specs[-1]
        for spec in ladder:
            G = groups[spec]
            text = rnd.op("realize", lambda: fx.star.realize_exponent4(G)
                          .to_json())
            if text is rnd.FAILED:
                rnd.skip("verify")
                continue
            ok = rnd.op("verify", lambda: fx.search.verify_certificate(text))
            if ok is rnd.FAILED:
                continue
            rnd.expect(ok, f"verify_certificate rejected the {spec} "
                           f"certificate")
            with rnd.unrecorded():
                check_doc(rnd, fx, text, groups)
        results = rnd.op("fixtures", lambda: fx.search.run_fixtures())
        if results is not rnd.FAILED:
            with rnd.unrecorded():
                for res in results:
                    rnd.expect(res.verified, f"fixture {res.name} failed")
                    check_doc(rnd, fx, res.certificate.to_dict())
        # the named fault: realize_exponent4 exhausts its bases on this
        # exponent-4 group (counted as a failed operation, timed in no part)
        G = groups[open_case]
        text = rnd.op(None, lambda: fx.star.realize_exponent4(G).to_json())
        if text is not rnd.FAILED:
            with rnd.unrecorded():
                check_doc(rnd, fx, text, groups)


# -- search -------------------------------------------------------------------


class Search:
    name = "search"
    parts = ("search_hit", "search_exhaust", "search_char4")

    @staticmethod
    def inputs(seed):
        return [spec for _, spec, _, _ in SEARCHES]

    @staticmethod
    def run(rnd, fx, groups, specs):
        for label, spec, m, budget in SEARCHES:
            G = groups[spec]
            config = fx.search.SearchConfig(m=m) if budget is None else \
                fx.search.SearchConfig(m=m, budget=budget)

            def realize():
                fx.screeners.screen(G)
                return fx.search.search_realizing_ideal(G, config)

            for _ in range(HIT_REPEATS if label == "hit" else 1):
                cert = rnd.op("search_" + label, realize)
            if cert is rnd.FAILED:
                continue
            with rnd.unrecorded():
                if label == "exhaust":
                    # cyclic groups of order 8 are not unit groups of rings
                    rnd.expect(cert is None, "C8 search returned a certificate")
                elif label == "hit":
                    rnd.expect(cert is not None, "C8xC2 search found nothing")
                if cert is not None:
                    check_doc(rnd, fx, cert.to_json(), groups)


# -- encode-large ---------------------------------------------------------------


class EncodeLarge:
    name = "encode-large"
    parts = ("encode_256a", "encode_256b", "encode_256c")

    @staticmethod
    def inputs(seed):
        rng = random.Random(seed)
        return [rng.choice(pool) for pool in ENCODE_LADDER]

    @staticmethod
    def run(rnd, fx, groups, specs):
        for part, spec in zip(EncodeLarge.parts, specs):
            G = groups[spec]

            def encode():
                st = fx.star.star_table(G, fx.star.pc_sequence(G))
                ok, witness = fx.star.verify_star_conditions(G, st)
                if not ok:
                    raise RuntimeError(f"{spec}: translation conditions fail "
                                       f"at {witness}")
                return fx.star.complement_ideal(G, st)

            basis = rnd.op(part, encode)
            if basis is not rnd.FAILED:
                with rnd.unrecorded():
                    problems = check.check_complement_basis(G, basis.rows)
                    rnd.expect(not problems, f"{spec} ideal: {problems}")


WORKLOADS = {w.name: w for w in (Certify, Search, EncodeLarge)}
