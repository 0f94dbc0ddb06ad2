"""Mutation gate for the verifiers' shortcuts and the size bounds.

Every shortcut of an exact checker (MUB set and net; a Hadamard matrix
is checked as one MUB basis), among them the owner tables that let a
basis whose groups partition the points pair each group with itself
alone and the byte-row test that settles a pair of net-shaped bases
whole, each step of the ring test down the cyclotomic tower, every bound
that must act before costly work, the Latin refusal of non-integer
cells, the copies a Latin square and a MOLS set keep of their input, the
planner's reading of each node off the divisors of d and its first-max
split scan, the factoring wheel, each C-level pass that builds, groups
or loads a set without a Python step per vector, the supports such a
set shares, the length check of a vector, and the writers' walk over the
tables a set keeps must be pinned by a test that fails when it is
broken.  Each entry of MUTANTS names a file under src/, a text that
occurs in it exactly once, its replacement and the tests that must catch
the change.  The run copies src/, tests/ and pyproject.toml to a
temporary directory, runs every named test on the unmutated copy (all
must pass), then applies one mutant at a time and runs its tests (at
least one must fail).

It exits 0 when every mutant is killed, and 1 when a mutant survives, an
old text no longer matches exactly once (a refactor must update the list)
or the clean tree fails.  The script itself uses the standard library
only; the tests it starts need pytest and hypothesis.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUB = "src/mubkit/mub.py"
NET = "src/mubkit/net.py"
SERIAL = "src/mubkit/serial.py"
CLI = "src/mubkit/cli.py"
LATIN = "src/mubkit/latin.py"
PLANNER = "src/mubkit/planner.py"
ARITH = "src/mubkit/arith.py"
CYCLO = "src/mubkit/cyclotomic.py"
T = "tests/test_mub.py::"
C = "tests/test_cyclotomic.py::"
TIMEOUT = 300  # seconds allowed for each pytest run

# (name, file, old text, new text, test node ids)
MUTANTS = [
    # the row-difference identity across bases (mub._group_pair_failures)
    ("closure check skipped", MUB,
     "        closed = all(codec.reduce(h + g, width) in offsets\n",
     "        closed = True or all(codec.reduce(h + g, width) in offsets\n",
     [T + "test_class_keys_off_one_coset_take_the_walk"]),
    ("offset groups compared by size only", MUB,
     "if offsets is not None and offsets == _offset_group(m, cache, keys_v, width):",
     "if offsets is not None and _offset_group(m, cache, keys_v, width) is not None:",
     [T + "test_class_keys_off_one_coset_take_the_walk"]),
    ("offset h = 0 not tested", MUB,
     "                   for h in offsets.values()):",
     "                   for h in list(offsets.values())[1:]):",
     [T + "test_class_keys_off_one_coset_take_the_walk"]),
    ("no walk after a failing key", MUB,
     "            if all(_memo_test(memo, m, d, tag, diffs_of(delta + h, width))",
     "            if True or all(_memo_test(memo, m, d, tag, diffs_of(delta + h, width))",
     [T + "test_class_keys_off_one_coset_take_the_walk"]),
    # earlier shortcuts of the exact verifier
    ("one shared point settles a pair whatever nu*nv", MUB,
     "if overlap == 1 and nu * nv == d:",
     "if overlap == 1:",
     [T + "test_non_integer_unbiasedness_target_fails_both_oracles_identically"]),
    ("members of one class pass inside their group", MUB,
     "            pairs.extend(itertools.chain.from_iterable(\n"
     "                itertools.combinations(c, 2) for c in members_u))\n",
     "",
     [T + "test_rows_one_phase_apart_fail_inside_their_group"]),
    ("_memo_test key without its tag", MUB,
     "    hit = memo.get((tag, diffs))\n"
     "    if hit is None:\n"
     "        hit = vanishes(m, diffs) if tag is None else unbiased(m, diffs, d, tag)\n"
     "        if len(memo) < _MEMO_LIMIT:\n"
     "            memo[tag, diffs] = hit\n",
     "    hit = memo.get(diffs)\n"
     "    if hit is None:\n"
     "        hit = vanishes(m, diffs) if tag is None else unbiased(m, diffs, d, tag)\n"
     "        if len(memo) < _MEMO_LIMIT:\n"
     "            memo[diffs] = hit\n",
     [T + "test_exact_report_names_every_failure_kind_in_order"]),
    ("row-block memo keyed by the number of rows", MUB,
     "        block = gu[4]\n",
     "        block = len(gu[4])\n",
     [T + "test_row_blocks_keep_each_groups_own_failing_pairs",
      "tests/test_acceptance.py::"
      "test_criterion_7_single_exponent_flips_fail_both_oracles_identically"]),
    ("whole-support classes not kept", MUB,
     "        cache[id(group)] = out\n",
     "        pass\n",
     [T + "test_rows_packed_whole_keep_exact_verdicts_at_both_field_widths"]),
    # the position index of the within-basis walk (mub._sharing_pairs)
    ("a one-vector group paired with itself", MUB,
     "        low = g if len(gu[3]) > 1 else g + 1",
     "        low = g",
     [T + "test_the_within_basis_walk_visits_each_sharing_pair_of_groups_once"]),
    ("neighbours read from a group's first position only", MUB,
     "{h for pos in gu[2] for h in holders[pos] if h >= low}",
     "{h for pos in gu[2][:1] for h in holders[pos] if h >= low}",
     [T + "test_overlapping_group_pairs_keep_exact_verdicts_once_the_memo_is_full",
      T + "test_the_within_basis_walk_visits_each_sharing_pair_of_groups_once"]),
    # the owner tables of the within-basis pass (mub._owner_table) and the
    # byte-row test of net-shaped bases across bases (mub._net_pairs)
    ("partition test accepts overlapping groups that cover every point", MUB,
     "    if sum(sizes) != d:\n"
     "        return None\n",
     "",
     [T + "test_the_within_basis_walk_visits_each_sharing_pair_of_groups_once"]),
    ("partition test accepts a repeated position", MUB,
     "    return owner if len(owner) == d else None\n",
     "    return owner\n",
     [T + "test_two_groups_on_one_support_keep_the_triangle_apart_from_the_rectangle"]),
    ("norm s not asked of a net-shaped basis", MUB,
     "           and set(map(_GROUP_NORM, groups)) == {s}]\n",
     "           ]\n",
     [T + "test_a_group_of_another_norm_takes_the_walk"]),
    ("pair (r, c) passes without the row test of R_c", MUB,
     "    pairs = {(r, c) for c in rest if distinct[c]}\n",
     "    pairs = {(r, c) for c in rest}\n",
     [T + "test_rows_that_repeat_a_byte_take_the_walk"]),
    ("pair (b, c) skips the row test of R_b", MUB,
     "if distinct[b] and distinct[c] and _orthogonal(rows[b], rows[c]))",
     "if distinct[c] and _orthogonal(rows[b], rows[c]))",
     [T + "test_rows_that_repeat_a_byte_take_the_walk"]),
    # the C-level passes that build, group and load a set without a Python
    # step per vector (build_mubs, _exact_tables, _exact_basis), the
    # supports a built or loaded set shares, and the length check of the
    # MubVector constructor they skip
    ("built vectors copy their support", MUB,
     "new(MubVector, (d, m, s, vec.support, row, None))",
     "new(MubVector, (d, m, s, tuple(list(vec.support)), row, None))",
     [T + "test_built_vectors_share_the_nets_supports_and_the_matrix_rows"]),
    ("loaded supports not shared", MUB,
     "map(shared.setdefault, supports, supports)",
     "supports",
     [T + "test_the_complete_s_32_set_round_trips_sharing_its_pairs"]),
    ("vector length check dropped", MUB,
     "        if len(values) != len(positions):\n"
     "            raise ValueError(f\"{len(values)} values for {len(positions)} positions\")\n",
     "",
     [T + "test_vector_refuses_a_length_mismatch_after_the_old_faults"]),
    ("a support run seen again starts a group of its own", MUB,
     "            index.setdefault(key, []).extend(run)\n",
     "            index[key] = list(run)\n",
     [T + "test_support_runs_that_meet_again_join_their_first_group"]),
    ("basis check accepts a repeated position", MUB,
     "    if not all(map(operator.lt, keyed, keyed[1:])):\n",
     "    if not all(map(operator.le, keyed, keyed[1:])):\n",
     [T + "test_checked_bases_refuse_what_the_walk_refuses"]),
    ("basis check accepts an exponent of m", MUB,
     "max(exps) < m)",
     "max(exps) <= m)",
     [T + "test_checked_bases_refuse_what_the_walk_refuses"]),
    # the writers' table walk (mub._vector_texts), which both the JSON
    # document and the human listing go through
    ("tables not cached on the set", MUB,
     "    @functools.cached_property\n"
     "    def _tables(self):\n",
     "    @property\n"
     "    def _tables(self):\n",
     ["tests/test_cli.py::test_the_emitted_set_builds_its_tables_once",
      T + "test_a_set_builds_its_exact_tables_once"]),
    ("render width from the first basis only", MUB,
     "    groups = itertools.chain.from_iterable(tables)\n",
     "    groups = iter(tables[0])\n",
     ["tests/test_cli.py::test_renderings_match_the_cell_by_cell_reference[mixed-root-orders]"]),
    ("row token cache keyed by the row's first exponent", MUB,
     "                toks = tokens.get(row)\n"
     "                if toks is None:\n"
     "                    toks = tokens[row] = tuple(map(token, unpack(row)))\n",
     "                toks = tokens.get(row[:1])\n"
     "                if toks is None:\n"
     "                    toks = tokens[row[:1]] = tuple(map(token, unpack(row)))\n",
     [T + "test_built_vectors_are_the_checked_embeddings",
      "tests/test_cli.py::test_build_renderings_are_pinned_and_written_basis_by_basis"]),
    # serial.gc_paused, which read_json and mubs_from_dict run under
    ("the loaders leave the collector paused", SERIAL,
     "        finally:\n"
     "            if enabled:\n"
     "                gc.enable()\n",
     "        finally:\n"
     "            pass\n",
     [T + "test_loaders_leave_the_collector_as_the_caller_set_it"]),
    # net._read_mols, which lets verify_net skip the pairwise walk
    ("two points in one (row, column) cell accepted", NET,
     "    if None in point:\n"
     "        return None\n",
     "",
     ["tests/test_net.py::test_cross_block_violation_is_reported"]),
    ("squares that are not MOLS read as an empty set", NET,
     "    except ValueError:  # NotLatinError, NotOrthogonalError, a symbol over 255\n"
     "        return None\n",
     "    except ValueError:  # NotLatinError, NotOrthogonalError, a symbol over 255\n"
     "        return MolsSet(s)\n",
     ["tests/test_net.py::test_reports_on_swapped_points_match_the_pairwise_reference"]),
    ("support drops the top set bit", NET,
     "        text = bin(self.bits)[:1:-1]\n",
     "        text = bin(self.bits)[:2:-1]\n",
     ["tests/test_net.py::test_support_lists_the_set_bits_in_order"]),
    ("an uncovered point accepted", NET,
     "    if any(None in owner for owner in owners):\n"
     "        return None\n",
     "",
     ["tests/test_net.py::test_within_block_violation_is_reported",
      "tests/test_net.py::test_reports_on_tampered_nets_match_the_pairwise_reference"]),
    # the 8-bit difference key of mub._row_codec, which verify_hadamard's
    # rows go through as one basis
    ("difference key drops the multiplicities", MUB,
     "lambda key, n: bytes(sorted(key.to_bytes(n, order).translate(mod_m))))",
     "lambda key, n: bytes(sorted(set(key.to_bytes(n, order).translate(mod_m)))))",
     ["tests/test_hadamard.py::test_difference_sets_of_other_multiplicities_are_tested_apart",
      "tests/test_hadamard.py::test_the_report_matches_one_ring_test_per_row_pair"]),
    # the byte-row checks of latin and arith, which let LatinSquare and
    # MolsSet skip the cell walks
    ("Latin column check dropped", LATIN,
     "    return (not flat.translate(None, sym) and _distinct(rows, sym)\n"
     "            and _distinct([flat[c::s] for c in range(s)], sym))\n",
     "    return not flat.translate(None, sym) and _distinct(rows, sym)\n",
     ["tests/test_latin.py::test_latin_square_rejects_repeats"]),
    ("Latin symbol range check dropped", LATIN,
     "    return (not flat.translate(None, sym) and _distinct(rows, sym)\n",
     "    return (_distinct(rows, sym)\n",
     ["tests/test_latin.py::test_latin_square_rejects_repeats"]),
    ("orthogonality read off the rows of the table matrix", ARITH,
     "    return _distinct([table[x::256] for x in range(s)], _SYMBOLS[:s])\n",
     "    return _distinct([table[256 * x:256 * x + s] for x in range(s)], _SYMBOLS[:s])\n",
     ["tests/test_latin.py::test_orthogonality_witness"]),
    ("non-integer cells accepted once the cell walk passes them", LATIN,
     "            raise NotLatinError(\"cells must be integers\")\n",
     "",
     ["tests/test_latin.py::test_float_celled_squares_never_reach_a_net_or_a_file"]),
    # a square is its checked byte rows and a set its tuple of squares
    ("a square keeps the caller's grid", LATIN,
     "        return tuple.__new__(cls, (rows,))\n",
     "        return tuple.__new__(cls, (grid,))\n",
     ["tests/test_latin.py::test_squares_and_sets_hold_copies_of_their_input"]),
    ("a MOLS set keeps the caller's sequence", LATIN,
     "        squares = tuple(squares)\n",
     "",
     ["tests/test_latin.py::test_squares_and_sets_hold_copies_of_their_input"]),
    # cyclotomic._zero, the ring test down the tower Q(w_q) inside Q(w_m)
    ("last slice of a prime not dividing q skipped", CYCLO,
     "for r in range(1, p))",
     "for r in range(1, p - 1))",
     [C + "test_primitive_root_sums_vanish", C + "test_equality_across_orders"]),
    ("slices of a repeated prime taken as contiguous blocks", CYCLO,
     "return all(_zero(q, c[r::p]) for r in range(p))",
     "return all(_zero(q, c[r * q:(r + 1) * q]) for r in range(p))",
     [C + "test_fourth_root_squares_to_minus_one"]),
    ("slices compared without their turn", CYCLO,
     "map(operator.sub, s[k:] + s[:k], head)",
     "map(operator.sub, s, head)",
     [C + "test_known_vanishing_sums_of_nonprime_order", C + "test_equality_across_orders"]),
    # the planner's reading of each node off the divisors of d, its split
    # scan and the wheel that factors d
    ("a node that two primes of d divide taken for a prime power", PLANNER,
     "if sum(n % p == 0 for p in primes) == 1:",
     "if sum(n % p == 0 for p in primes) >= 1:",
     ["tests/test_planner.py::test_plan_small_dimensions"]),
    ("divisors of d that do not divide the node taken as splits", PLANNER,
     "            if n % a:\n"
     "                continue\n",
     "",
     ["tests/test_planner.py::test_plans_match_the_eager_search"]),
    ("a split that ties the optimum taken: the last tied split wins", PLANNER,
     "            if c > top:\n",
     "            if c >= top:\n",
     ["tests/test_planner.py::test_plans_match_the_eager_search"]),
    ("split scan stopped before a * a = n, losing the square split", PLANNER,
     "            if a > s:\n"
     "                break\n",
     "            if a * a >= n:\n"
     "                break\n",
     ["tests/test_planner.py::test_plans_match_the_eager_search"]),
    ("one residue dropped from the factoring wheel", ARITH,
     "itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6))",
     "itertools.cycle((4, 2, 4, 2, 4, 6, 2))",
     ["tests/test_latin.py::test_factorize_matches_trial_division_by_every_integer"]),
    # bounds that must act before the costly step they guard
    ("read_json size bound moved after parsing", SERIAL,
     "    expect(len(data) <= MAX_DOCUMENT_BYTES,\n"
     "           f\"{path} holds more than {MAX_DOCUMENT_BYTES} bytes\")\n"
     "    try:\n"
     "        return json.loads(data.decode(\"utf-8\"))\n"
     "    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep\n"
     "        raise ParseError(f\"{path}: invalid JSON: {exc}\") from None\n",
     "    try:\n"
     "        doc = json.loads(data.decode(\"utf-8\"))\n"
     "    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep\n"
     "        raise ParseError(f\"{path}: invalid JSON: {exc}\") from None\n"
     "    expect(len(data) <= MAX_DOCUMENT_BYTES,\n"
     "           f\"{path} holds more than {MAX_DOCUMENT_BYTES} bytes\")\n"
     "    return doc\n",
     ["tests/test_cli.py::test_json_reads_bound_the_file_size"]),
    ("read_json lets a parser RecursionError through", SERIAL,
     "    except (ValueError, RecursionError) as exc:",
     "    except ValueError as exc:",
     ["tests/test_cli.py::test_malformed_json_exits_2"]),
    ("order bound one above MAX_ORDER", LATIN,
     "    if s > MAX_ORDER:\n"
     "        raise ValueError(f\"TooLarge: order {s} exceeds {MAX_ORDER}\")\n",
     "    if s > MAX_ORDER + 1:\n"
     "        raise ValueError(f\"TooLarge: order {s} exceeds {MAX_ORDER}\")\n",
     ["tests/test_latin.py::test_grids_over_the_order_limit_are_refused"]),
    ("MOLS order bound moved after the squares are built", LATIN,
     "    bound_order(order)  # before any square is read\n"
     "    raw = data[\"squares\"]\n"
     "    serial.expect(isinstance(raw, list), '\"squares\" must be a list')\n"
     "    squares = []\n"
     "    for idx, grid in enumerate(raw):\n"
     "        serial.expect(serial.is_int_rows(grid), f\"square {idx} must be a list of integer rows\")\n"
     "        serial.expect(len(grid) == order and set(map(len, grid)) == {order},\n"
     "                      f\"square {idx} must be {order}x{order}\")\n"
     "        try:\n"
     "            squares.append(LatinSquare(grid))\n"
     "        except NotLatinError as exc:\n"
     "            raise NotLatinError(str(exc), square=idx, row=exc.row, col=exc.col) from None\n",
     "    raw = data[\"squares\"]\n"
     "    serial.expect(isinstance(raw, list), '\"squares\" must be a list')\n"
     "    squares = []\n"
     "    for idx, grid in enumerate(raw):\n"
     "        serial.expect(serial.is_int_rows(grid), f\"square {idx} must be a list of integer rows\")\n"
     "        serial.expect(len(grid) == order and set(map(len, grid)) == {order},\n"
     "                      f\"square {idx} must be {order}x{order}\")\n"
     "        try:\n"
     "            squares.append(LatinSquare(grid))\n"
     "        except NotLatinError as exc:\n"
     "            raise NotLatinError(str(exc), square=idx, row=exc.row, col=exc.col) from None\n"
     "    bound_order(order)\n",
     ["tests/test_cli.py::test_mols_files_over_the_order_limit_are_refused_before_any_square"]),
    ("net order bound dropped", NET,
     "    bound_order(s)  # before any block is read, as net_from_mols bounds its grid\n",
     "",
     ["tests/test_cli.py::test_net_files_over_the_order_limit_are_refused_before_any_block"]),
    ("bound_build moved after best_mols", CLI,
     "    mub.bound_build(latin.best_mols_width(s, imported) + 2, s)\n"
     "    n = net.net_from_mols(latin.best_mols(s, imported=imported))\n",
     "    n = net.net_from_mols(latin.best_mols(s, imported=imported))\n"
     "    mub.bound_build(latin.best_mols_width(s, imported) + 2, s)\n",
     ["tests/test_cli.py::test_build_and_tensor_refuse_sets_the_loader_would_refuse"]),
]


def run_tests(tree: str, ids: list[str]) -> tuple[bool, str]:
    """(passed, tail of output) for pytest on ids inside tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *ids]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT} s"
    return done.returncode == 0, "\n".join(done.stdout.splitlines()[-3:]) or "no output"


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tree:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        for name, path, old, new, _ in MUTANTS:
            with open(os.path.join(tree, path), encoding="utf-8") as fh:
                text = fh.read()
            count = text.count(old)
            if count != 1:
                bad.append(f"{name}: old text found {count} times in {path}")
                continue
            try:  # a mutant that does not compile would be killed for nothing
                compile(text.replace(old, new), path, "exec")
            except SyntaxError as exc:
                bad.append(f"{name}: the mutated {path} does not compile: {exc}")
        if bad:
            print("\n".join(bad))
            return 1
        ids = sorted({i for mutant in MUTANTS for i in mutant[4]})
        ok, tail = run_tests(tree, ids)
        print(f"clean tree: {'pass' if ok else 'FAIL'} ({len(ids)} tests)")
        if not ok:
            print(tail)
            return 1
        for name, path, old, new, tests in MUTANTS:
            target = os.path.join(tree, path)
            with open(target, encoding="utf-8") as fh:
                clean = fh.read()
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(clean.replace(old, new))
            try:
                survived, tail = run_tests(tree, tests)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(clean)
            print(f"{'SURVIVED' if survived else 'killed'}: {name} ({tail.splitlines()[-1]})")
            if survived:
                bad.append(name)
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants survived: {', '.join(bad)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
