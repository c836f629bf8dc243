"""Qualified keys: interning, type-checked joins, CSV loading."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from linkstate.errors import EmptyComponent, KeyTypeMismatch, MissingColumn
from linkstate.qkeys import (
    KeyManager,
    KeyedColumn,
    join_columns,
    load_csv_column,
)


class TestInterning:
    def test_same_pair_same_object(self):
        mgr = KeyManager()
        a = mgr.get_qkey("Town", "Lowell")
        b = mgr.get_qkey("Town", "Lowell")
        assert a is b
        assert a.intern_id == b.intern_id

    def test_same_name_different_type_distinct(self):
        mgr = KeyManager()
        town = mgr.get_qkey("Town", "Lowell")
        school = mgr.get_qkey("School", "Lowell")
        assert town.intern_id != school.intern_id

    def test_empty_components_rejected(self):
        mgr = KeyManager()
        with pytest.raises(EmptyComponent):
            mgr.get_qkey("", "Lowell")
        with pytest.raises(EmptyComponent):
            mgr.get_qkey("Town", "")

    def test_components_that_are_no_strings_rejected(self):
        mgr = KeyManager()
        with pytest.raises(EmptyComponent):
            mgr.get_qkey(1, "Lowell")
        with pytest.raises(EmptyComponent):
            mgr.get_qkey("Town", None)

    def test_key_by_id_roundtrip(self):
        mgr = KeyManager()
        k = mgr.get_qkey("Town", "Boston")
        assert mgr.key_by_id(k.intern_id) is k
        with pytest.raises(KeyError):
            mgr.key_by_id(99)
        with pytest.raises(KeyError):
            mgr.key_by_id(0)

    def test_bijection_under_interleaving(self):
        rng = random.Random(5)
        mgr = KeyManager()
        pairs = [(rng.choice("ABCD"), f"name{rng.randrange(30)}") for _ in range(500)]
        ids = {}
        for kt, name in pairs:
            k = mgr.get_qkey(kt, name)
            assert ids.setdefault((kt, name), k.intern_id) == k.intern_id
        assert len(set(ids.values())) == len(ids)
        assert len(mgr) == len(ids)

    def test_concurrent_interning_stays_bijective(self):
        mgr = KeyManager()
        pairs = [("Town", f"t{i}") for i in range(50)]

        def worker(seed):
            rng = random.Random(seed)
            return [mgr.get_qkey(*rng.choice(pairs)).intern_id for _ in range(300)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))
        assert len(mgr) <= len(pairs)
        for kt, name in pairs:
            got = {mgr.get_qkey(kt, name).intern_id}
            assert len(got) == 1
        seen = {i for chunk in results for i in chunk}
        assert seen <= set(range(1, len(pairs) + 1))


def towns(mgr, title, data):
    return KeyedColumn(
        "Town", title, {mgr.get_qkey("Town", n).intern_id: v for n, v in data.items()}
    )


class TestJoin:
    def test_union_with_missing_values(self):
        mgr = KeyManager()
        pop = towns(mgr, "pop", {"Lowell": 1, "Boston": 2})
        area = towns(mgr, "area", {"Boston": 9})
        table = join_columns(mgr, [pop, area])
        assert table.titles == ["pop", "area"]
        assert [(k.local_name, v) for k, v in table.rows] == [
            ("Boston", [2, 9]),
            ("Lowell", [1, None]),
        ]

    def test_cross_type_rejected_both_orders(self):
        mgr = KeyManager()
        town = towns(mgr, "pop", {"Lowell": 1})
        school = KeyedColumn(
            "School", "score", {mgr.get_qkey("School", "Lowell").intern_id: 88}
        )
        with pytest.raises(KeyTypeMismatch):
            join_columns(mgr, [town, school])
        with pytest.raises(KeyTypeMismatch):
            join_columns(mgr, [school, town])
        with pytest.raises(KeyTypeMismatch):
            join_columns(mgr, [town, town, school])

    def test_single_column_identity_sorted(self):
        mgr = KeyManager()
        col = towns(mgr, "pop", {"Quincy": 3, "Boston": 2})
        table = join_columns(mgr, [col])
        assert [(k.local_name, v) for k, v in table.rows] == [
            ("Boston", [2]),
            ("Quincy", [3]),
        ]

    def test_empty_join_rejected(self):
        with pytest.raises(ValueError):
            join_columns(KeyManager(), [])

    def test_row_permutation_invariance(self):
        rng = random.Random(11)
        mgr = KeyManager()
        names = [f"town{i}" for i in range(12)]
        base_a = {n: rng.randint(0, 99) for n in rng.sample(names, 8)}
        base_b = {n: rng.randint(0, 99) for n in rng.sample(names, 7)}
        reference = join_columns(mgr, [towns(mgr, "a", base_a), towns(mgr, "b", base_b)]).to_csv()
        for _ in range(100):
            sa = list(base_a.items())
            sb = list(base_b.items())
            rng.shuffle(sa)
            rng.shuffle(sb)
            shuffled = join_columns(
                mgr, [towns(mgr, "a", dict(sa)), towns(mgr, "b", dict(sb))]
            ).to_csv()
            assert shuffled == reference

    def test_csv_rendering_quotes_and_nulls(self):
        mgr = KeyManager()
        col = towns(mgr, "note", {"Boston": 'has,comma and "quote"', "Quincy": None})
        out = join_columns(mgr, [col]).to_csv()
        assert out.splitlines() == [
            "key,note",
            'Boston,"has,comma and ""quote"""',
            "Quincy,",
        ]


class TestCsvLoading:
    def test_three_rows(self, tmp_path):
        p = tmp_path / "towns.csv"
        p.write_text("name,pop\nLowell,111\nBoston,222\nQuincy,333\n")
        mgr = KeyManager()
        col = load_csv_column(mgr, str(p), "name", "pop", "Town")
        assert col.title == "pop"
        assert col.duplicates == 0
        assert col.entries[mgr.get_qkey("Town", "Boston").intern_id] == 222

    def test_duplicate_key_last_wins_with_diagnostic(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("name,pop\nLowell,1\nLowell,2\n")
        mgr = KeyManager()
        col = load_csv_column(mgr, str(p), "name", "pop", "Town")
        assert len(col.entries) == 1
        assert col.duplicates == 1
        assert col.entries[mgr.get_qkey("Town", "Lowell").intern_id] == 2

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,pop\nLowell,1\n")
        with pytest.raises(MissingColumn):
            load_csv_column(KeyManager(), str(p), "name", "area", "Town")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(MissingColumn):
            load_csv_column(KeyManager(), str(empty), "name", "pop", "Town")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_column(KeyManager(), str(tmp_path / "nope.csv"), "k", "v", "Town")

    def test_quoted_fields_and_value_parsing(self, tmp_path):
        p = tmp_path / "mixed.csv"
        p.write_text('name,val\n"Fall River",3.5\nBoston,"a,b"\nQuincy,\n')
        mgr = KeyManager()
        col = load_csv_column(mgr, str(p), "name", "val", "Town")
        assert col.entries[mgr.get_qkey("Town", "Fall River").intern_id] == 3.5
        assert col.entries[mgr.get_qkey("Town", "Boston").intern_id] == "a,b"
        assert col.entries[mgr.get_qkey("Town", "Quincy").intern_id] is None

    def test_a_row_short_of_a_column_reads_that_cell_empty(self, tmp_path):
        # the first row has no name cell, the second no extra cell
        p = tmp_path / "short.csv"
        p.write_text("pop,name,extra\n5\n6,Boston\n")
        mgr = KeyManager()
        col = load_csv_column(mgr, str(p), "name", "extra", "Town")
        assert col.entries == {mgr.get_qkey("Town", "Boston").intern_id: None}

    def test_empty_key_rows_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("name,pop\n,9\nBoston,2\n")
        mgr = KeyManager()
        col = load_csv_column(mgr, str(p), "name", "pop", "Town")
        assert len(col.entries) == 1
