"""Grid, transform, multiplier, norm, and cutoff contracts."""

import ast
import dataclasses
import glob
import inspect
import math
import os

import numpy as np
import pytest

import aknslab
from aknslab import diagnostics, flows, hierarchy, lax
from aknslab.profiles import gaussian, plane_wave, random_schwartz, spectral_profile
from aknslab.spectral import (
    Field,
    Grid,
    SingularSymbolError,
    SpectralError,
    apply_multiplier,
    bump,
    cutoff_antiderivative,
    dealiased_mul,
    diff,
    fractional_symbol,
    inverse_shift_symbol,
    pad,
    pad_partner,
    partition_constant,
    sobolev_norm,
    sobolev_weight,
    truncate,
    weighted_norm_sq,
)

from conftest import l2, rel_l2


class TestGrid:
    def test_lattice_shape(self, grid):
        assert grid.dx == 0.25
        assert grid.x[0] == -32.0
        assert np.isclose(grid.dxi, 2 * np.pi / 64.0)
        assert np.isclose(grid.xi[1], grid.dxi)

    def test_line_normalization_round_trip(self, grid):
        # data prescribed by their line transform have the norm of that
        # transform: spectral_profile and weighted_norm_sq share one scale
        def profile(xi):
            return np.exp(-((xi - 1.0) ** 2)) * (1.0 + 0.5j * xi)

        f = spectral_profile(grid, profile)
        weight = sobolev_weight(grid, -0.5)
        want = grid.dxi * np.sum(weight * np.abs(profile(grid.xi)) ** 2)
        got = weighted_norm_sq(np.fft.fft(f.values), grid, weight)
        assert abs(got - want) <= 1e-12 * want

    def test_transform_matches_line_transform(self, grid):
        # e^{-x^2} has line transform e^{-xi^2/4}/sqrt(2)
        f = spectral_profile(grid, lambda xi: np.exp(-xi**2 / 4.0) / math.sqrt(2.0))
        assert np.max(np.abs(f.values - gaussian(grid, 1.0).values)) < 1e-12

    def test_points_must_be_power_of_two(self):
        with pytest.raises(SpectralError):
            Grid(10.0, 100)
        with pytest.raises(SpectralError):
            Grid(-1.0, 64)


class TestField:
    def test_plancherel(self, grid, small_gaussian):
        f = small_gaussian
        freq = weighted_norm_sq(np.fft.fft(f.values), grid, sobolev_weight(grid, 0.0))
        assert abs(f.l2_norm() ** 2 - freq) <= 1e-12 * f.l2_norm() ** 2

    def test_boundary_decay_check(self, grid):
        ok = gaussian(grid, 0.1)
        ok.check_schwartz()
        flat = Field(grid, np.ones(grid.points))
        with pytest.raises(SpectralError):
            flat.check_schwartz()

    def test_conjugate_partner_signs(self, grid, small_gaussian):
        defo = gaussian(grid, 0.1, sign=+1)
        foc = gaussian(grid, 0.1, sign=-1)
        assert np.allclose(defo.r, np.conj(defo.values))
        assert np.allclose(foc.r, -np.conj(foc.values))

    def test_explicit_partner(self, grid, small_gaussian):
        q = small_gaussian.values
        with pytest.raises(SpectralError, match="partner shape"):
            Field(grid, q, partner=np.ones(grid.points - 1))
        bad = np.ones(grid.points)
        bad[3] = np.nan
        with pytest.raises(SpectralError, match="non-finite"):
            Field(grid, q, partner=bad)
        f = Field(grid, q, -1, partner=2.0 * q)
        assert f.partner.dtype == np.complex128 and np.array_equal(f.r, 2.0 * q)

    def test_frozen(self, grid, small_gaussian):
        # rebinding an array after construction would skip its validation
        f = Field(grid, small_gaussian.values, partner=small_gaussian.r)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.partner = np.full(3, np.nan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.full(3, np.nan)
        assert np.array_equal(f.r, small_gaussian.r)


def test_one_way_to_pass_the_partner():
    """No public Field-level callable takes the partner as an ``r``/``r0``
    argument: it travels on ``Field.partner``.  Only the raw-array kernels
    (``*_raw``) take q and r as two arrays."""
    callables = [obj for obj in map(aknslab.__dict__.get, aknslab.__all__) if callable(obj)]
    callables += [lax.operator_pair, hierarchy.density, hierarchy.current]
    for module in (lax, hierarchy, flows, diagnostics):
        callables += [fn for name, fn in inspect.getmembers(module, inspect.isfunction)
                      if fn.__module__ == module.__name__
                      and not name.startswith("_") and not name.endswith("_raw")]
    for fn in callables:
        assert not {"r", "r0"} & set(inspect.signature(fn).parameters), fn.__qualname__


def test_every_import_is_used():
    """No module of the package imports a name it never reads: a name bound
    by an import (``from __future__`` aside) must appear as a name somewhere
    in the module, or in ``__all__`` for the package's re-exports."""
    package = os.path.dirname(aknslab.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    bound[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{os.path.basename(path)}:{line} {name}"
                   for name, line in bound.items() if name not in used]
    assert not unused, "imported but never used: " + ", ".join(sorted(unused))


#: Public names that neither the CLI nor the check table reaches, each with
#: the reason it stays.
UNREACHED_ALLOWED = {
    "storage.read_trajectory": "it reads a format the CLI writes",
    "spectral.Field.boundary_decay": "ROADMAP item 7 records it as a gate margin",
    "spectral.Field.check_schwartz": "ROADMAP item 5 windows rough data to pass it",
}


def _reference_graph():
    """Static name-reference graph over the package's modules.

    Returns (edges, public, exported): ``edges`` maps each module-level
    definition (module, name) and each method (module, "Class.method") to
    the definitions its body, decorators and defaults name, and to every
    public method whose name it reads as an attribute; ``public`` holds every
    public module-level function and class and every public method of a
    public class; ``exported`` holds ``aknslab.__all__`` resolved to its
    defining module.  Imports are followed through their ``as`` aliases.  A
    local name that shadows a definition counts as a reference to it, and an
    attribute read reaches every public method of that name, so the graph
    errs toward reached, never toward unreached."""
    package = os.path.dirname(aknslab.__file__)
    edges, public, exported = {}, set(), set()
    reads, methods = {}, {}  # node -> attribute names read; name -> method nodes
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        # local name -> (module, name) for a name, (module, None) for a module
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    aliases[a.asname or a.name] = ((node.module, a.name) if node.module
                                                   else (a.name, None))
        defs, separate = {}, set()  # separate: ids of the method nodes
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
                if not stmt.name.startswith("_"):
                    public.add((module, stmt.name))
                for meth in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                        node = (module, f"{stmt.name}.{meth.name}")
                        defs[node[1]] = meth
                        separate.add(id(meth))
                        methods.setdefault(meth.name, set()).add(node)
                        if not stmt.name.startswith("_"):
                            public.add(node)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[t.id] = stmt

        def resolve(node):
            if isinstance(node, ast.Name):
                if node.id in defs:
                    return module, node.id
                target = aliases.get(node.id)
                return target if target and target[1] else None
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = aliases.get(node.value.id)
                return (target[0], node.attr) if target and target[1] is None else None
            return None

        def walk(stmt):
            """ast.walk, minus the bodies of methods that are nodes of their own."""
            nodes, todo = [], [stmt]
            while todo:
                nodes.append(todo.pop())
                todo.extend(child for child in ast.iter_child_nodes(nodes[-1])
                            if id(child) not in separate)
            return nodes

        for name, stmt in defs.items():
            nodes = walk(stmt)
            edges[module, name] = {ref for node in nodes if (ref := resolve(node))}
            reads[module, name] = {node.attr for node in nodes
                                   if isinstance(node, ast.Attribute)
                                   and isinstance(node.ctx, ast.Load)}
        if module == "__init__":
            exported = {aliases[name] for name in aknslab.__all__ if name in aliases}
    for node, attrs in reads.items():
        edges[node] |= {m for attr in attrs for m in methods.get(attr, ())}
    return edges, public, exported


def test_every_public_name_is_reached():
    """Every name in ``aknslab.__all__``, every public module-level function
    and class, and every public method of a public class is reached, through
    the static name references and attribute reads, from a subcommand
    (``cli.COMMANDS``, ``cli.main``) or a row of the check table
    (``selftest.GROUPS``); the few that need not be are in
    ``UNREACHED_ALLOWED``."""
    edges, public, exported = _reference_graph()
    reached, todo = set(), [("cli", "COMMANDS"), ("cli", "main"), ("selftest", "GROUPS")]
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.add(node)
            todo.extend(edges.get(node, ()))
    assert len(exported) == len(aknslab.__all__)
    unreached = {f"{m}.{n}" for m, n in (public | exported) - reached}
    stray = sorted(unreached - set(UNREACHED_ALLOWED))
    assert not stray, "reached by no subcommand and no check: " + ", ".join(stray)
    assert set(UNREACHED_ALLOWED) <= unreached, "allow-listed but reached or gone"


class TestMultipliers:
    def test_constant_mode(self, grid):
        f = plane_wave(grid, 1.0, 0.0)
        out = apply_multiplier(f.values, inverse_shift_symbol(grid, 2.0, -1), grid)
        assert np.max(np.abs(out - 0.5)) < 1e-13

    def test_single_mode_symbol_value(self):
        g = Grid(8 * np.pi, 256)
        f = plane_wave(g, 1.0, 1.0)
        out = apply_multiplier(f.values, inverse_shift_symbol(g, 2.0, +1), g)
        expected = f.values / (2.0 + 1.0j)
        assert np.max(np.abs(out - expected)) < 1e-13
        assert abs(np.abs(out[0]) - 1.0 / math.sqrt(5.0)) < 1e-13

    def test_identity_symbol(self, grid, rng):
        f = random_schwartz(grid, rng)
        out = apply_multiplier(f.values, np.ones_like(grid.xi), grid)
        assert rel_l2(grid, out, f.values) < 1e-12

    def test_composition(self, grid, rng):
        f = random_schwartz(grid, rng)
        m1 = inverse_shift_symbol(grid, 4.0, -1)
        one = diff(apply_multiplier(f.values, m1, grid), grid)
        both = apply_multiplier(f.values, m1 * (1j * grid.xi), grid)
        assert rel_l2(grid, one, both) < 1e-12

    def test_adjoint_convention(self, grid, rng):
        # <f, (k-d)^{-s} g> = <(k+d)^{-s} f, g> for the discrete pairing
        f = random_schwartz(grid, rng)
        g2 = random_schwartz(grid, rng)
        for sigma in (0.5, 0.25, 1.0):
            left = grid.integrate(np.conj(f.values) * apply_multiplier(
                g2.values, fractional_symbol(grid, 2.0, -1, sigma), grid))
            right = grid.integrate(np.conj(apply_multiplier(
                f.values, fractional_symbol(grid, 2.0, +1, sigma), grid)) * g2.values)
            assert abs(left - right) <= 1e-12 * abs(left)

    def test_branch_cut_convention(self):
        g = Grid(2 * np.pi, 4)  # xi[1] = 1
        val = fractional_symbol(g, 1.0, -1, 0.5)[1]
        z = 1.0 - 1j * g.xi[1]
        expected = abs(z) ** -0.5 * np.exp(-0.5j * np.angle(z))
        assert abs(val - expected) < 1e-15

    def test_inverse_shift_tuple_gives_the_scalar_rows(self, grid):
        for sign in (-1, +1):
            rows = inverse_shift_symbol(grid, (2.0, 16.0, 64.0), sign)
            assert rows.shape == (3, grid.points)
            assert all(np.array_equal(row, inverse_shift_symbol(grid, c, sign))
                       for row, c in zip(rows, (2.0, 16.0, 64.0)))

    def test_singular_symbol_rejected(self, grid, small_gaussian):
        with pytest.raises(SingularSymbolError):
            inverse_shift_symbol(grid, 0.0, -1)
        with pytest.raises(SingularSymbolError):
            inverse_shift_symbol(grid, (2.0, 0.0), +1)
        with pytest.raises(SingularSymbolError, match="xi = 0"):
            apply_multiplier(small_gaussian.values, np.where(grid.xi == 0, np.inf, 1.0), grid)

    def test_symbols_and_weights_are_cached_read_only(self, grid):
        # every solve shares these arrays, so a write must fail, not corrupt them
        for build, args in ((inverse_shift_symbol, (grid, 4.0, -1)),
                            (inverse_shift_symbol, (grid, (4.0, 8.0), +1)),
                            (fractional_symbol, (grid, 2.0, +1, 0.5)),
                            (sobolev_weight, (grid, -0.25)),
                            (sobolev_weight, (grid, 0.75, 2.0))):
            values = build(*args)
            assert build(*args) is values, build.__name__
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                values *= 2.0


class TestSobolevNorms:
    def test_zero_field(self, grid):
        assert sobolev_norm(Field(grid, np.zeros(grid.points)), -0.5) == 0.0

    def test_single_mode_half_value(self, grid):
        f = plane_wave(grid, 1.0, 0.0)
        f = Field(grid, f.values / f.l2_norm())
        assert abs(sobolev_norm(f, -0.5, 1.0) ** 2 - 0.5) < 1e-12

    def test_gaussian_l2(self, grid):
        f = gaussian(grid, 1.0)
        assert abs(sobolev_norm(f, 0.0, 3.0) ** 2 - math.sqrt(math.pi / 2)) < 1e-12

    def test_monotone_in_kappa_for_negative_sigma(self, grid, small_gaussian):
        values = [sobolev_norm(small_gaussian, -0.5, k) for k in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_kappa_gate(self, grid, small_gaussian):
        with pytest.raises(SpectralError):
            sobolev_norm(small_gaussian, -0.5, 0.5)

    def test_norm_equivalence_riemann_sum(self, grid, rng):
        # int_kappa^inf  k^{2(s-s')} ||q||_{H^{s'}_k}^2 dk/k  within x4 of ||q||_{H^s_kappa}^2
        f = random_schwartz(grid, rng, norm=0.3)
        s, sp = -0.25, -0.5
        karr = np.geomspace(1.0, 100.0, 600)
        vals = np.array([k ** (2 * (s - sp)) * sobolev_norm(f, sp, k) ** 2
                         for k in karr])
        riemann = float(np.trapezoid(vals, x=np.log(karr)))
        target = sobolev_norm(f, s, 1.0) ** 2
        assert target / 4.0 <= riemann <= 4.0 * target


class TestDealiasing:
    def test_matches_exact_product_of_bandlimited(self, grid):
        # factors supported on the lower half band multiply exactly
        rng = np.random.default_rng(7)
        coeffs = np.zeros(grid.points, dtype=complex)
        low = grid.points // 8
        coeffs[:low] = rng.standard_normal(low) + 1j * rng.standard_normal(low)
        coeffs[-low:] = rng.standard_normal(low) + 1j * rng.standard_normal(low)
        a = np.fft.ifft(coeffs)
        direct = a * a
        assert rel_l2(grid, dealiased_mul(a, a), direct) < 1e-12

    def test_kills_aliasing_of_full_band_product(self, grid):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
        a = np.fft.ifft(coeffs)
        aliased = a * a
        clean = dealiased_mul(a, a)
        # the two differ exactly by the wrapped-around modes
        assert l2(grid, aliased - clean) > 1e-6

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_galerkin_product_of_full_band_factors(self, degree, n):
        # reference: the exact product by direct convolution of the centred
        # coefficients (modes -N/2 .. N/2-1), truncated to the same band
        rng = np.random.default_rng(10 * degree + n)
        coeffs = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                  for _ in range(degree)]
        exact = np.fft.fftshift(coeffs[0])
        for c in coeffs[1:]:
            exact = np.convolve(exact, np.fft.fftshift(c))
        low = (degree - 1) * n // 2  # index of mode -N/2 in the exact product
        reference = np.fft.ifftshift(exact[low:low + n])
        product = dealiased_mul(*(n * np.fft.ifft(c) for c in coeffs))
        got = np.fft.fft(product) / n
        assert np.linalg.norm(got - reference) <= 1e-13 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n", [16, 256])
    def test_truncate_inverts_pad(self, n):
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for m in (3 * n // 2, 2 * n, 5 * n // 2):
            assert np.max(np.abs(truncate(pad(c, m), n) - c)) <= 1e-14 * np.max(np.abs(c))

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", [16, 4096])
    def test_pad_partner_matches_padded_conjugate(self, n, sign):
        # full-band data: the unpaired -N/2 mode is the one conjugation moves
        rng = np.random.default_rng(n)
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q_hat = np.fft.fft(q)
        assert abs(q_hat[n // 2]) > 1e-3 * np.max(np.abs(q_hat))
        for m in (3 * n // 2, 2 * n, 5 * n // 2):
            want = pad(np.fft.fft(sign * np.conj(q)), m)
            got = pad_partner(pad(q_hat, m), q_hat, sign)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestCutoffs:
    def test_partition_constant(self):
        assert abs(partition_constant() - 512.0 / 7.0) < 1e-8

    def test_bump_squared_integral(self):
        from scipy.integrate import quad

        val, _ = quad(lambda x: bump(x) ** 2, -np.inf, np.inf)
        assert abs(val - 198.0) < 1e-8

    def test_peak_value(self):
        assert bump(0.0) ** 12 == 1.0

    def test_translation_and_positivity(self, grid):
        samples = bump(grid.x - 3.0, 5.0) ** 6
        assert np.all(samples > 0.0) and np.all(samples <= 1.0)
        assert np.argmax(samples) == np.argmin(np.abs(grid.x - 3.0))

    def test_antiderivative_matches_quadrature(self, grid):
        from scipy.integrate import quad

        phi = cutoff_antiderivative(grid.x + 2.0, 12, scale=3.0)
        assert abs(phi[0]) < 1e-12
        assert np.all(np.diff(phi) >= -1e-14 * phi[-1])
        x_probe = 4.0
        j = int(np.argmin(np.abs(grid.x - x_probe)))
        ref, _ = quad(lambda y: bump(y + 2.0, 3.0) ** 12, -np.inf, grid.x[j])
        assert abs(phi[j] - ref) < 1e-10

    def test_odd_power_rejected(self, grid):
        with pytest.raises(SpectralError, match="even powers"):
            cutoff_antiderivative(grid.x, 13)
