import itertools

import pytest

from tanvar.curves import TypeSequence
from tanvar.strata import (
    CLASSES,
    CurveClass,
    Inadmissible,
    LagrangianOrders,
    codim_flag,
    codim_lagrangian,
    codim_plain,
    codimension,
    enumerate_generic,
    lagrangian_admissible,
    orders_to_type,
)

T = TypeSequence.of


# -- codimension formulas ---------------------------------------------------------


def test_codim_plain_ordinary():
    assert codim_plain(T(1, 2, 3, 4), 3) == 0


def test_codim_plain_first_degeneration():
    assert codim_plain(T(1, 2, 3, 5), 3) == 1


def test_codim_plain_direct_evaluation():
    assert codim_plain(T(1, 3, 4, 6), 3) == 4


def test_codim_plain_length_guard():
    with pytest.raises(ValueError):
        codim_plain(T(1, 2, 3), 3)


def test_codim_flag_full_depth_reduces():
    for entries in [(1, 2, 3, 5), (1, 3, 4, 6), (2, 3, 4, 7)]:
        A = T(*entries)
        assert codim_flag(A, 3, 3) == entries[-1] - 4


def test_codim_flag_tangent_example():
    assert codim_flag(T(2, 3, 4, 5), 1, 3) == 1


def test_codim_flag_ordinary_any_depth():
    for k in (1, 2, 3):
        assert codim_flag(T(1, 2, 3, 4), k, 3) == 0


def test_codim_flag_depth_guard():
    with pytest.raises(ValueError):
        codim_flag(T(1, 2, 3, 4), 4, 3)


def test_class_table_depths_and_descriptions():
    got = {
        name: (make(3).depth, make(3).type_length, make(3).describe())
        for name, make in CLASSES.items()
    }
    assert got == {
        "plain": (0, 4, "plain (N=3)"),
        "tangent": (1, 4, "tangent-framed (N=3)"),
        "tpn": (2, 4, "tangent-principal-normal-framed (N=3)"),
        "osculating": (3, 4, "osculating-framed (N=3)"),
        "contact": (None, 7, "contact-osculating (n=3)"),
    }


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_flag_class_depth(N):
    for k in (-1, 0, N + 1):
        with pytest.raises(ValueError, match="flag depth must satisfy 1 <= k <= N"):
            CurveClass.flag(N, k)
    for k in range(1, N + 1):
        cls = CurveClass.flag(N, k)
        assert (cls.dimension, cls.depth) == (N, k)
    assert CurveClass.flag(N, 1) == CurveClass.tangent_framed(N)
    if N >= 2:
        assert CurveClass.flag(N, 2) == CurveClass.tpn_framed(N)
    if N >= 3:
        assert CurveClass.flag(N, N) == CurveClass.osculating_framed(N)
    if N >= 4:
        assert CurveClass.flag(N, 3).describe() == f"flag-framed (k=3) (N={N})"


def test_class_depth_above_dimension():
    with pytest.raises(ValueError, match="tangent-principal-normal-framed curves need N >= 2"):
        CurveClass.tpn_framed(1)
    with pytest.raises(ValueError, match="dimension parameter must be >= 1"):
        CurveClass.tpn_framed(0)
    assert CurveClass.flag(1, 1) == CurveClass.tangent_framed(1)


def test_codim_flag_full_depth_on_random_sequences(rng):
    for _ in range(1000):
        N = rng.randint(2, 6)
        entries = sorted(rng.sample(range(1, 16), N + 1))
        A = T(*entries)
        assert codim_flag(A, N, N) == entries[-1] - (N + 1)


# -- contact admissibility -----------------------------------------------------------


def test_admissible_with_gap():
    orders = lagrangian_admissible(T(1, 3, 4, 6, 7), 2)
    assert orders == LagrangianOrders((1, 2), 1)


def test_admissible_ordinary():
    orders = lagrangian_admissible(T(1, 2, 3, 4, 5), 2)
    assert orders == LagrangianOrders((1, 1), 1)


def test_inadmissible_example():
    verdict = lagrangian_admissible(T(1, 2, 3, 4, 6), 2)
    assert isinstance(verdict, Inadmissible)


def test_codim_lagrangian_examples():
    assert codim_lagrangian(T(1, 3, 4, 6, 7), 2) == 1
    assert codim_lagrangian(T(1, 2, 3, 4, 5), 2) == 0
    assert codim_lagrangian(T(1, 2, 4, 5, 6), 2) == 1


def test_codim_lagrangian_rejects_inadmissible():
    with pytest.raises(ValueError):
        codim_lagrangian(T(1, 2, 3, 4, 6), 2)


def test_orders_to_type_examples():
    assert orders_to_type(LagrangianOrders((1, 1), 1)) == T(1, 2, 3, 4, 5)
    assert orders_to_type(LagrangianOrders((2, 1), 1)) == T(2, 3, 4, 5, 7)
    assert orders_to_type(LagrangianOrders((1, 1, 2), 1)) == T(1, 2, 4, 5, 7, 8, 9)


def test_orders_type_roundtrip_small():
    for n in (1, 2, 3):
        for u in itertools.product(range(1, 4), repeat=n):
            for v in range(1, 4):
                orders = LagrangianOrders(tuple(u), v)
                A = orders_to_type(orders)
                back = lagrangian_admissible(A, n)
                assert back == orders


def test_admissible_types_roundtrip_exhaustive():
    # every admissible strictly increasing sequence with entries <= 12
    for n in (1, 2, 3, 4):
        length = 2 * n + 1
        count = 0
        for entries in itertools.combinations(range(1, 13), length):
            A = T(*entries)
            verdict = lagrangian_admissible(A, n)
            if isinstance(verdict, Inadmissible):
                continue
            count += 1
            assert orders_to_type(verdict) == A
        assert count > 0


# -- generic enumeration ----------------------------------------------------------------


def plain_list(N):
    ordinary = tuple(range(1, N + 2))
    return {ordinary, ordinary[:-1] + (N + 2,)}


def osculating_list(N):
    out = {tuple(range(1, N + 2))}
    for i in range(0, N + 1):
        out.add(tuple(range(1, i + 1)) + tuple(range(i + 2, N + 3)))
    return out


def tangent_list(N):
    return {
        tuple(range(1, N + 2)),
        tuple(range(1, N + 1)) + (N + 2,),
        tuple(range(2, N + 3)),
    }


def tpn_list(N):
    return tangent_list(N) | {(1,) + tuple(range(3, N + 3))}


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_enumerate_plain(N):
    got = {A.entries for A in enumerate_generic(CurveClass.plain(N))}
    assert got == plain_list(N)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_enumerate_osculating(N):
    got = {A.entries for A in enumerate_generic(CurveClass.osculating_framed(N))}
    assert got == osculating_list(N)
    assert len(got) == N + 2


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_enumerate_tangent(N):
    got = {A.entries for A in enumerate_generic(CurveClass.tangent_framed(N))}
    assert got == tangent_list(N)
    assert len(got) == 3


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_enumerate_tpn(N):
    got = {A.entries for A in enumerate_generic(CurveClass.tpn_framed(N))}
    assert got == tpn_list(N)
    assert len(got) == 4


def test_enumerate_contact_n1():
    got = {A.entries for A in enumerate_generic(CurveClass.contact_osculating(1))}
    assert got == {(1, 2, 3), (1, 3, 4), (2, 3, 5)}


def test_enumerate_contact_n2():
    got = {A.entries for A in enumerate_generic(CurveClass.contact_osculating(2))}
    assert got == {
        (1, 2, 3, 4, 5),
        (1, 2, 4, 5, 6),
        (1, 3, 4, 6, 7),
        (2, 3, 4, 5, 7),
    }


def test_enumeration_is_sorted():
    for cls in (
        CurveClass.plain(4),
        CurveClass.osculating_framed(4),
        CurveClass.contact_osculating(2),
    ):
        out = [A.entries for A in enumerate_generic(cls)]
        assert out == sorted(out)


def test_contact_last_entry_constraint():
    for n in (1, 2, 3):
        for A in enumerate_generic(CurveClass.contact_osculating(n)):
            a = A.entries
            assert a[2 * n] == a[n] + a[n - 1]


def test_ordinary_type_costs_nothing_in_every_class():
    for N in (2, 3, 4, 5):
        ordinary = T(*range(1, N + 2))
        for cls in (
            CurveClass.plain(N),
            CurveClass.tangent_framed(N),
            CurveClass.tpn_framed(N),
            CurveClass.osculating_framed(N),
        ):
            assert codimension(ordinary, cls) == 0
    for n in (1, 2, 3):
        ordinary = T(*range(1, 2 * n + 2))
        assert codimension(ordinary, CurveClass.contact_osculating(n)) == 0


def test_enumeration_matches_brute_force_over_wider_box():
    # widen the search bound to a_i <= i + 4 and check nothing new appears
    for cls in (
        CurveClass.plain(3),
        CurveClass.tangent_framed(3),
        CurveClass.tpn_framed(3),
        CurveClass.osculating_framed(3),
        CurveClass.contact_osculating(2),
    ):
        length = cls.type_length
        wide = set()
        for entries in itertools.combinations(range(1, length + 5), length):
            A = T(*entries)
            try:
                c = codimension(A, cls)
            except ValueError:
                continue
            if c <= 1:
                wide.add(entries)
        got = {A.entries for A in enumerate_generic(cls)}
        assert got == wide


def _bounded_sequences_recursive(length: int):
    """All strictly increasing positive sequences with a_i <= i + 2."""
    out = []

    def extend(prefix):
        i = len(prefix) + 1
        if i > length:
            out.append(prefix)
            return
        lo = prefix[-1] + 1 if prefix else 1
        for a in range(lo, i + 3):
            extend(prefix + (a,))

    extend(())
    return out


@pytest.mark.parametrize("length", range(1, 15))
def test_bounded_sequences_match_recursive_search(length):
    from tanvar.strata import _bounded_sequences

    got = _bounded_sequences(length)
    assert got == _bounded_sequences_recursive(length)
    assert len(got) == (length + 1) * (length + 2) // 2

def test_type_length_cap_matches_curve_truncation_cap():
    from tanvar.jets import MAX_TRUNCATION_1
    from tanvar.strata import MAX_TYPE_LENGTH

    assert MAX_TYPE_LENGTH == MAX_TRUNCATION_1
    with pytest.raises(ValueError, match="type length 257 exceeds 256"):
        enumerate_generic(CurveClass.plain(MAX_TYPE_LENGTH))
    with pytest.raises(ValueError, match="type length 257 exceeds 256"):
        enumerate_generic(CurveClass.contact_osculating(128))
