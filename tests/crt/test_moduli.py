"""Tests for the moduli table and selection."""

from __future__ import annotations

import math

import pytest

from repro.crt.moduli import (
    MAX_TABLE_SIZE,
    MODULI_TABLE,
    generate_moduli_table,
    select_moduli,
    validate_moduli,
)
from repro.errors import ModuliError


class TestModuliTable:
    def test_table_head_matches_paper(self):
        # Section 4.1: {256, 255, 253, 251, ...}
        assert MODULI_TABLE[:4] == (256, 255, 253, 251)

    def test_table_size(self):
        assert len(MODULI_TABLE) == MAX_TABLE_SIZE

    def test_table_descending_and_in_range(self):
        assert all(2 <= p <= 256 for p in MODULI_TABLE)
        assert list(MODULI_TABLE) == sorted(MODULI_TABLE, reverse=True)

    def test_table_pairwise_coprime(self):
        for i, p in enumerate(MODULI_TABLE):
            for q in MODULI_TABLE[i + 1:]:
                assert math.gcd(p, q) == 1, (p, q)

    def test_generate_with_small_limit(self):
        table = generate_moduli_table(16, 5)
        assert table == (16, 15, 13, 11, 7)

    def test_generate_invalid_args(self):
        with pytest.raises(ModuliError):
            generate_moduli_table(1, 5)
        with pytest.raises(ModuliError):
            generate_moduli_table(256, 0)


class TestSelectAndValidate:
    @pytest.mark.parametrize("n", [2, 8, 14, 20])
    def test_select_returns_first_n(self, n):
        selection = select_moduli(n)
        assert selection == MODULI_TABLE[:n]

    def test_select_bounds(self):
        with pytest.raises(ModuliError):
            select_moduli(1)
        with pytest.raises(ModuliError):
            select_moduli(MAX_TABLE_SIZE + 1)

    def test_validate_rejects_non_coprime(self):
        with pytest.raises(ModuliError):
            validate_moduli([256, 254])  # both even

    def test_validate_rejects_duplicates(self):
        with pytest.raises(ModuliError):
            validate_moduli([251, 251])

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ModuliError):
            validate_moduli([512, 511])
        with pytest.raises(ModuliError):
            validate_moduli([1, 3])

    def test_validate_rejects_too_few(self):
        with pytest.raises(ModuliError):
            validate_moduli([251])

    def test_validate_accepts_custom_coprime_set(self):
        assert validate_moduli([64, 81, 25, 49]) == (64, 81, 25, 49)


class TestDefaultPrefixValidatedOnce:
    """The default table is validated at import; its prefixes are not
    re-validated on every lookup (N(N-1)/2 gcds per call)."""

    def test_prefixes_unchanged(self):
        generated = generate_moduli_table(256, MAX_TABLE_SIZE)
        for n in range(2, 21):
            assert select_moduli(n) == validate_moduli(generated[:n]) == generated[:n]

    def test_default_lookups_skip_validation(self, monkeypatch):
        import repro.crt.constants as constants_mod
        import repro.crt.moduli as moduli_mod
        from repro.config import Ozaki2Config
        from repro.core.operand import table_for

        for n in range(2, 21):  # build every table before spying
            constants_mod.build_constant_table(n, 64)
        calls = []

        def spy(moduli):
            calls.append(moduli)
            return validate_moduli(moduli)

        monkeypatch.setattr(moduli_mod, "validate_moduli", spy)
        monkeypatch.setattr(constants_mod, "validate_moduli", spy)
        for n in range(2, 21):
            select_moduli(n)
            constants_mod.build_constant_table(n, 64)
            table_for(Ozaki2Config(num_moduli=n))
        assert calls == []
        # A caller's own table is still checked.
        select_moduli(3, table=[7, 5, 3])
        assert calls == [(7, 5, 3)]

    def test_bad_user_sequences_still_raise(self):
        from repro.crt.constants import build_constant_table

        with pytest.raises(ModuliError, match="coprime"):
            select_moduli(3, table=[255, 253, 250])
        with pytest.raises(ModuliError, match="coprime"):
            build_constant_table(2, moduli=[256, 254])
