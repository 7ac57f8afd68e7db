"""Mutants of src/ that the test suite must kill, for tests/run_mutants.py.

Each row names a file under src/colorful_kcenter, a snippet that must
occur in it exactly once, the snippet's replacement, and the one test
node that must fail against the mutated copy.  A row whose snippet no
longer matches fails the run too: update the row with the code.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    node: str


MUTANTS = [
    # a cold solve takes only programs whose slack basis is dual feasible
    Mutant(
        "the refusal checks the side a cost points away from",
        "lp.py",
        "if c > 0 and lo is None or c < 0 and up is None:",
        "if c > 0 and up is None or c < 0 and lo is None:",
        "tests/test_lp.py::test_a_cost_past_an_open_side_is_refused[min-lower]",
    ),
    # a boxed column with a negative cost stays at its lower bound, so
    # the slack basis is not dual feasible, and the first "optimum" has
    # a dual of another value, which the strong duality check refuses
    Mutant(
        "nonbasic placement ignores the sign of the reduced cost",
        "lp.py",
        "if up is not None and (d < 0 or lo is None):",
        "if up is not None and lo is None:",
        "tests/test_lp.py::test_golden_outcomes[bound_flips]",
    ),
    Mutant(
        "dual ratio ties broken to the highest index",
        "lp.py",
        "if best is None or num * best_den < best_num * den:",
        "if best is None or num * best_den <= best_num * den:",
        "tests/test_lp.py::test_golden_outcomes[infeasible_rational_rows]",
    ),
    Mutant(
        "dual ratio ties broken to the highest index, on degenerate programs",
        "lp.py",
        "if best is None or num * best_den < best_num * den:",
        "if best is None or num * best_den <= best_num * den:",
        "tests/test_lp_properties.py::test_ties_in_the_ratio_test_go_to_the_lowest_index",
    ),
    Mutant(
        "leaving row of the highest basic index",
        "lp.py",
        "if best_b is not None and b > best_b:",
        "if best_b is not None and b < best_b:",
        "tests/test_lp.py::test_golden_outcomes[infeasible_equalities]",
    ),
    Mutant(
        "optimum check deleted",
        "lp.py",
        "if _first_violation(self.lp, x, D) is not None:",
        "if False:",
        "tests/test_lp_properties.py::test_an_optimum_outside_its_program_is_refused",
    ),
    Mutant(
        "a warm re-solve drops its first new row",
        "lp.py",
        "warm._append(lp.constraints[warm.m :])",
        "warm._append(lp.constraints[warm.m + 1 :])",
        "tests/test_lp.py::test_solve_refuses_a_start_whose_program_it_does_not_extend",
    ),
    # the lcm is checked only once every row is built at it
    Mutant(
        "row-bits check after the rows are built",
        "model.py",
        "    scale = 1\n"
        "    for _, den in values.values():\n"
        "        scale = math.lcm(scale, den)\n",
        "    scale = math.lcm(*(den for _, den in values.values()))\n"
        "    built = [[values[v][0] * (scale // values[v][1]) for v in row] for row in rows]\n"
        "    for _, den in values.values():\n",
        "tests/test_model.py::test_the_row_bits_limit_holds_before_any_row_is_built",
    ),
    Mutant(
        "--gamma limit removed",
        "cli.py",
        '            _check_points(args.gamma, "gen random --gamma", "colors")\n',
        "",
        "tests/test_cli.py::test_exit_codes_for_bad_inputs",
    ),
    # a set-cover element and a vc3 edge are each one color
    Mutant(
        "`gen setcover` skips the colors check",
        "cli.py",
        '            _check_points(sc.universe, "set cover universe", "colors")\n',
        "",
        "tests/test_cli.py::test_exit_codes_for_bad_inputs",
    ),
    Mutant(
        "`gen vc3` skips the colors check",
        "cli.py",
        '            _check_points(len(g.edges), "graph edges", "colors")\n',
        "",
        "tests/test_cli.py::test_exit_codes_for_bad_inputs",
    ),
    Mutant(
        "--samples limit removed",
        "cli.py",
        "if not 0 <= args.samples <= MAX_SAMPLES:",
        "if not 0 <= args.samples:",
        "tests/test_cli.py::test_exit_codes_for_bad_inputs",
    ),
    # an LP is its ints: costs and bounds must be integers, and a row
    # given with Fractions is held as its ints, its rhs too
    Mutant(
        "the integrality refusal dropped",
        "lp.py",
        "if v is not None and v.denominator != 1:",
        "if False:",
        "tests/test_lp.py::test_malformed_programs_are_refused",
    ),
    Mutant(
        "a Fraction row's rhs stored unscaled",
        "lp.py",
        "coeffs, rhs = tuple(ints), b",
        "coeffs = tuple(ints)",
        "tests/test_lp.py::test_golden_outcomes[mixed_denominators]",
    ),
    # exact rationals: an optimum's value as a float
    Mutant(
        "the optimal value is a float",
        "lp.py",
        "value = Fraction(sign * primal, D)",
        "value = sign * primal / D",
        "tests/test_lp.py::test_int_programs_give_fraction_outcomes",
    ),
    # a forged certificate proves a program infeasible
    Mutant(
        "certificates not verified",
        "lp.py",
        "if not verify_certificate(lp, cert):",
        "if False:",
        "tests/test_lp.py::test_a_forged_certificate_cannot_start_a_solve",
    ),
    # a certificate that does not sum to the zero vector passes
    Mutant(
        "Farkas combination not checked",
        "lp.py",
        "    if any(combo):\n        return False\n",
        "",
        "tests/test_lp_properties.py::test_solve_equals_the_fraction_reference",
    ),
    Mutant(
        "open balls",
        "model.py",
        "sum(1 << u for u, d in enumerate(row) if d <= level)",
        "sum(1 << u for u, d in enumerate(row) if d < level)",
        "tests/test_model.py::test_balls_and_candidate_radii",
    ),
    # a radius level is floor(r * scale), not floor(r) * scale: on an
    # instance of scale 7 the balls at r = 2/7 are not those at r = 0
    Mutant(
        "Instance._level floors r before scaling it",
        "model.py",
        "return r.numerator * self.scale // r.denominator",
        "return r.numerator // r.denominator * self.scale",
        "tests/test_acceptance.py::"
        "test_scaling_every_distance_scales_every_radius_and_nothing_else",
    ),
    Mutant(
        "triangle rescan names the failing pair's own first triple",
        "model.py",
        "        for a in range(i, n) for b in range(n)\n"
        "        if max(map(operator.sub, rows[a], rows[b])) > rows[a][b]\n",
        "        for a, b in ((i, j), (j, i))\n",
        "tests/test_model.py::test_validate_metric_names_the_first_triangle_in_scan_order",
    ),
    # the packed triangle check: a field too narrow to hold G + 2 * max e'
    # carries into its neighbour, which only makes pairs fall back to the
    # exact rescan; a check of the top 62 bits without the one-unit margin
    # clears a pair one unit short
    Mutant(
        "packed fields one bit narrower",
        "model.py",
        "bits - s + 2",
        "bits - s + 1",
        "tests/test_model.py::test_a_metric_is_decided_by_the_packed_check_alone",
    ),
    Mutant(
        "packed check of the top bits without the one-unit margin",
        "model.py",
        "m, shift = int(s > 0),",
        "m, shift = 0,",
        "tests/test_model.py::test_the_exact_rescan_decides_what_the_margin_cannot_clear",
    ),
    # the enumeration's pick-count bound drops a prefix that has a
    # feasible completion
    Mutant(
        "pick-count bound one pick short",
        "model.py",
        "+ left * top[start] < demand",
        "+ (left - 1) * top[start] < demand",
        "tests/test_model.py::test_pick_count_bound_at_its_boundary",
    ),
    Mutant(
        "counting certificate with A one above the k-th largest count",
        "model.py",
        "CountingBound(color, kept_mask, tuple(counts), counts[top[-1]], bound)",
        "CountingBound(color, kept_mask, tuple(counts), counts[top[-1]] + 1, bound)",
        "tests/test_solver.py::test_counting_certificates_verify",
    ),
    Mutant(
        "verify_partition skips the radius check",
        "partition.py",
        "        if outside:\n",
        "        if False:\n",
        "tests/test_partition.py::test_verify_partition_flags_bad_radius",
    ),
    # the packing DP's answer is a last-layer state with no unmet need
    Mutant(
        "the last layer accepts a state with unmet need",
        "dp.py",
        "for (need, _), v in layer.items() if not any(need))",
        "for (need, _), v in layer.items())",
        "tests/test_dp.py::test_demand_at_and_past_its_reach",
    ),
    # the pooled bound drops a program the plain recursion solves
    Mutant(
        "pooled bound drops demands it meets exactly",
        "dp.py",
        "return sum(scores[:capacity]) < len(pooled) * unit",
        "return sum(scores[:capacity]) <= len(pooled) * unit",
        "tests/test_dp.py::test_demand_at_and_past_its_reach",
    ),
    # the packing DP's forward pass: a state keeps the heavier picks and,
    # on equal weight, the smaller mask, which skips the first item where
    # the two differ; a pick sets its item's bit and needs budget left
    Mutant(
        "the DP takes the pick on equal weight",
        "dp.py",
        "if nxt.get(key, value) <= value:",
        "if nxt.get(key, value)[0] <= value[0]:",
        "tests/test_dp.py::test_demand_at_and_past_its_reach",
    ),
    Mutant(
        "the picks mask drops the item's bit",
        "dp.py",
        "key, value = (need, budget - 1), (weight + w, neg - bit)",
        "key, value = (need, budget - 1), (weight + w, neg)",
        "tests/test_dp.py::test_demand_at_and_past_its_reach",
    ),
    Mutant(
        "the pick is offered with no budget left",
        "dp.py",
        "            if not budget:\n                continue\n",
        "",
        "tests/test_dp.py::test_weights_are_summed_exactly",
    ),
    # the guess search drops only outside points that an inside center's
    # ball dominates
    Mutant(
        "guess pruning drops points whose ball contains an inside ball",
        "dp.py",
        "all(masks[u] | m != m for m in held)",
        "all(masks[u] | m != masks[u] for m in held)",
        "tests/test_dp.py::test_find_few_outside_matches_brute_existence",
    ),
    Mutant(
        "guess pruning drops points whose ball meets an inside ball",
        "dp.py",
        "all(masks[u] | m != m for m in held)",
        "all(not masks[u] & m for m in held)",
        "tests/test_dp.py::test_find_few_outside_matches_brute_existence",
    ),
    # the column-free restricted dual's optimum, priced with no solve
    Mutant(
        "column-free dual point priced with mu = 0",
        "fair.py",
        "mu=-1, den=1",
        "mu=0, den=1",
        "tests/test_fair.py::test_restricted_with_no_columns",
    ),
    # the restricted dual is a covering LP over every point with a target
    Mutant(
        "a targeted alpha dropped",
        "model.py",
        "for u, t in enumerate(p) if t)",
        "for u, t in enumerate(p) if 0 < t < 1)",
        "tests/test_fair.py::test_the_covering_form_matches_the_mu_form",
    ),
    # the distribution is the restricted dual's Farkas certificate
    Mutant(
        "restricted-dual weights read off the wrong rows",
        "fair.py",
        "zip(columns, y)",
        "zip(columns, y[1:])",
        "tests/test_fair.py::test_a_distribution_exactly_when_the_coverage_lp_is_feasible",
    ),
    Mutant(
        "restricted-dual weights with their sign flipped",
        "fair.py",
        "(c, w / total)",
        "(c, -w / total)",
        "tests/test_fair.py::test_a_distribution_exactly_when_the_coverage_lp_is_feasible",
    ),
    # the gap is L sum(y), so weights over it sum to 1 / L
    Mutant(
        "restricted-dual weights not normalised by their sum",
        "fair.py",
        "total = sum(y)",
        "total = out.certificate.gap",
        "tests/test_fair.py::test_a_distribution_exactly_when_the_coverage_lp_is_feasible",
    ),
    # enumeration prices its columns from the feasible sets
    Mutant(
        "pricing asks for more than mu",
        "fair.py",
        "mass[best] < goal",
        "mass[best] < goal + dual.den",
        "tests/test_fair.py::test_enumeration_prices_to_the_brute_force_radius",
    ),
    # a covered weight strictly above mu, both ints over den, is at least mu + 1
    Mutant(
        "goal without its +1 margin",
        "fair.py",
        "max(0, dual.mu + 1)",
        "max(0, dual.mu)",
        "tests/test_fair.py::test_pair_forces_doubled_radius",
    ),
    Mutant(
        "margin doubled",
        "fair.py",
        "max(0, dual.mu + 1)",
        "max(0, dual.mu + 2)",
        "tests/test_fair.py::test_weighted_goal_units",
    ),
    # the dual point is the restricted dual's optimum, one alpha per
    # targeted point
    Mutant(
        "dual point read off onto the wrong points",
        "fair.py",
        "point = dict(zip(targeted, out.point))",
        "point = dict(enumerate(out.point))",
        "tests/test_fair.py::test_restricted_dual_point_is_the_lp_point",
    ),
    Mutant(
        "enumeration solves every coverage at once",
        "fair.py",
        "dist = _generate(finst, r, price, rec)",
        "dist, _ = solve_restricted(finst, r, list(sets.values()))",
        "tests/test_fair.py::test_enumeration_keeps_the_restricted_dual_small",
    ),
    Mutant(
        "points limit off by one",
        "cli.py",
        "if count > MAX_POINTS:",
        "if count > MAX_POINTS + 1:",
        "tests/test_cli.py::test_exit_codes_for_bad_inputs",
    ),
    # the JSON writer writes json.dumps's indent=2 bytes
    Mutant(
        "JSON writer indents by one space",
        "model.py",
        'inner = newline + "  "',
        'inner = newline + " "',
        "tests/test_golden_outputs.py::test_the_json_writer_matches_json_dumps",
    ),
    # byte-identical reruns: the output carries a per-run value
    Mutant(
        "solution file differs from run to run",
        "cli.py",
        "text = model.dumps_json(payload)",
        'text = model.dumps_json({**payload, "run": id(payload)})',
        "tests/test_golden_outputs.py::test_output_bytes_unchanged[random-1]",
    ),
    # one trace type: a solve_fair probe's columns and cuts sit on its
    # separations, and its last restricted solve accepts
    Mutant(
        "trace totals skip separations",
        "solver.py",
        "(probe, *probe.separations)",
        "(probe,)",
        "tests/test_fair.py::test_trace_bookkeeping",
    ),
    Mutant(
        "restricted_solves misses the accepting solve",
        "fair.py",
        "        got, out = solve_restricted(finst, radius, columns, out)\n"
        "        rec.restricted_solves += 1\n"
        "        if isinstance(got, Distribution):\n"
        "            return got\n",
        "        got, out = solve_restricted(finst, radius, columns, out)\n"
        "        if isinstance(got, Distribution):\n"
        "            return got\n"
        "        rec.restricted_solves += 1\n",
        "tests/test_fair.py::test_restricted_solves_count_every_solve[enumerated]",
    ),
    # a probe is rejected while its fair relaxation at r is empty; the
    # relaxation at 4r holds a point on many of those radii, and the
    # certificate the probe was rejected by is then one at 4r
    Mutant(
        "emptiness tested at 4r instead of r",
        "fair.py",
        "if _counting_empty(finst, r) or _relaxation_empty(finst, r, relaxation, rec):",
        "if _counting_empty(finst, 4 * r) or _relaxation_empty(\n"
        "                finst, 4 * r, LiveRelaxation(), rec):",
        "tests/test_fair.py::test_empty_probes_against_the_oracle",
    ),
    # the LP test re-solves the cut-free relaxation with the target rows;
    # without them it misses every radius the targets alone make empty
    Mutant(
        "LP emptiness test without the target rows",
        "fair.py",
        "return lp.solve(base.program.extended(target_rows(finst.p)), base).status",
        "return base.status",
        "tests/test_fair.py::test_an_empty_probe_the_counting_bound_misses_runs_its_lp",
    ),
    # a greedy point mass is reported where it also covers every targeted
    # point, not just where it meets the demands
    Mutant(
        "point-mass radius ignores the targeted points",
        "fair.py",
        "return max(service_radius(inst, centers), Fraction(far, inst.scale))",
        "return service_radius(inst, centers)",
        "tests/test_fair.py::test_greedy_point_masses_cover_every_target_at_their_radius",
    ),
    # the target rows bound x_u only outside the color; inside it, the
    # demand row already counts x_u, so its p(u) counts twice and the
    # bound fires where the certificate's gap is not positive
    Mutant(
        "target bound also sums p(u) over kept points inside the color",
        "model.py",
        "w = [scale if members >> u & 1 else weights[u] if weights else 0 for u in range(n)]",
        "w = [scale + (weights[u] if weights else 0) if members >> u & 1"
        " else weights[u] if weights else 0 for u in range(n)]",
        "tests/test_fair.py::test_target_counting_certificates_verify",
    ),
    # greedy centers answer a probe only when they meet every demand at
    # its 4r: a point mass of both solvers, and a fair one covering every
    # target too
    Mutant(
        "greedy point mass without the demand check",
        "model.py",
        "if left or not check_feasible(inst, chosen, radius).feasible:",
        "if left:",
        "tests/test_fair.py::test_the_greedy_point_mass_is_a_distribution",
    ),
    Mutant(
        "greedy-4r accepted without check_feasible",
        "model.py",
        "if left or not check_feasible(inst, chosen, radius).feasible:",
        "if left:",
        "tests/test_fair.py::test_greedy_probes_against_the_oracle",
    ),
    Mutant(
        "colorful greedy-4r accepted without check_feasible",
        "model.py",
        "if left or not check_feasible(inst, chosen, radius).feasible:",
        "if left:",
        "tests/test_solver.py::test_colorful_greedy_probes_against_the_oracle",
    ),
    # a separation the weighted greedy answers prices a feasible set at
    # 4r whose weight beats mu, and a greedy miss decides nothing: only
    # separate_or_certify certifies
    Mutant(
        "a greedy column accepted without check_feasible",
        "model.py",
        "if left or not check_feasible(inst, chosen, radius).feasible:",
        "if left or weights is None and not check_feasible(inst, chosen, radius).feasible:",
        "tests/test_fair.py::test_greedy_priced_columns_against_the_oracle",
    ),
    Mutant(
        "a greedy column accepted with weight below the goal",
        "fair.py",
        "if centers is None or weighted_coverage(finst.base, weights, centers, radius) < goal:",
        "if centers is None:",
        "tests/test_fair.py::test_greedy_priced_columns_against_the_oracle",
    ),
    Mutant(
        "a greedy miss treated as a certification",
        "fair.py",
        "got = separate_or_certify(finst, r, dual, sep, relaxation)",
        'sep.outcome, got = "certified", None',
        "tests/test_fair.py::test_greedy_pricing_keeps_every_radius",
    ),
    # weights break the demand's ties and spend the spare picks
    Mutant(
        "weighted greedy ignores the weights in demand ties",
        "model.py",
        "                gains = list(zip(gains, new))\n",
        "                pass\n",
        "tests/test_model.py::"
        "test_weighted_greedy_breaks_demand_ties_and_spends_spare_picks_by_new_weight",
    ),
    Mutant(
        "weighted greedy leaves its spare picks unspent",
        "model.py",
        "elif any(new):",
        "elif False:",
        "tests/test_model.py::"
        "test_weighted_greedy_breaks_demand_ties_and_spends_spare_picks_by_new_weight",
    ),
    # once every target is covered, each pick left serves the unmet demands
    Mutant(
        "spare picks go to ball 0",
        "model.py",
        "        pick = gains.index(max(gains))\n",
        "        pick = 0\n",
        "tests/test_fair.py::test_spare_picks_aim_at_the_demands",
    ),
    # a greedy-4r answer and the oracle's sets are reported at the
    # demand-th smallest distance from a member to the centers
    Mutant(
        "service radius takes the (demand+1)-th nearest member",
        "model.py",
        "sorted(near[u] for u in c.members)[c.demand - 1]",
        "sorted(near[u] for u in c.members)[min(c.demand, len(c.members) - 1)]",
        "tests/test_model.py::"
        "test_service_radius_is_the_least_candidate_radius_meeting_every_demand",
    ),
    # the counting bound's skip and the greedy point mass share one pick
    # order, most uncovered points first, ties to the lowest index
    Mutant(
        "greedy balls break ties to the highest index",
        "model.py",
        "chosen.append(gains.index(max(gains)))",
        "chosen.append(len(gains) - 1 - gains[::-1].index(max(gains)))",
        "tests/test_model.py::"
        "test_greedy_balls_pick_the_most_uncovered_points_ties_to_the_lowest_index",
    ),
    # a row's counts sum over the record and its separations, so a
    # solve_fair probe's row counts its separations' LP solves and cuts
    Mutant(
        "trace rows drop their separations' counts",
        "cli.py",
        "walk = (rec, *rec.separations)",
        "walk = (rec,)",
        "tests/test_cli.py::test_trace_file_and_json_logs",
    ),
    Mutant(
        "round_or_cut reports 5r for a rounded solution",
        "solver.py",
        'tag, found = "4r", CenterSet(frozenset(chosen), 4 * r)',
        'tag, found = "4r", CenterSet(frozenset(chosen), 5 * r)',
        "tests/test_acceptance.py::test_colorful_radius_within_four_times_optimum",
    ),
    # vertex cover is set cover on the incidence family: every edge lies
    # in the sets of both its endpoints
    Mutant(
        "an edge attached to only one endpoint",
        "generators.py",
        "        for v in edge:\n",
        "        for v in edge[:1]:\n",
        "tests/test_oracle_generators.py::test_vc3_is_setcover_on_the_incidence_family",
    ),
    # a center set meets every demand at r exactly when its smallest
    # such radius is at most r, equality included
    Mutant(
        "enumerate_feasible drops the sets whose smallest radius is r",
        "oracle.py",
        "_center_sets(inst) if mr <= r]",
        "_center_sets(inst) if mr < r]",
        "tests/test_oracle_generators.py::test_fixture_invariants",
    ),
    Mutant(
        "brute_force_fair drops the sets whose smallest radius is r",
        "oracle.py",
        "if mr <= r]\n        if not sets:",
        "if mr < r]\n        if not sets:",
        "tests/test_cli.py::test_brute_documents_are_pinned[fair]",
    ),
    # gen's --out was overwritten by each family's default
    Mutant(
        "gen takes --out before its family again",
        "cli.py",
        'sub.add_parser("gen", help=',
        'sub.add_parser("gen", parents=[shared], help=',
        "tests/test_cli.py::test_gen_out_follows_the_family",
    ),
]
