"""An Ext oracle independent of the table computation: ungraded Ext
dimensions between simples by honest Hom-complex cohomology over a
deliberately non-minimal projective resolution.

It builds on the package's module constructions (covers, kernels, Hom
spaces) but never reads a minimal resolution, so it checks the table's
"multiplicity of summands" shortcut from a different direction.
"""

from quiverext.linalg import Matrix
from quiverext.modules import (Projective, hom_space, kernel_subrep,
                               projective_cover, simple_module)
from quiverext.quiver import wzero


class _OracleResolution:
    """A deliberately non-minimal projective resolution of a simple: each
    cover carries one redundant copy of the projective at a fixed vertex,
    mapped to zero."""

    def __init__(self, engine, source_vertex, padding_vertex=None):
        self.engine = engine
        self.padding = padding_vertex or engine.quiver.vertices[0]
        self.terms = []
        self.maps = []   # maps[k]: terms[k].rep -> terms[k-1].rep, or -> S at k = 0
        # (module to cover next, its inclusion into the last term or None)
        self.kernels = [(simple_module(engine, source_vertex), None)]

    def _pad(self, cover_projective, target, epi_images):
        """Cover plus one redundant summand mapped to zero."""
        summands = list(cover_projective.summands) + \
            [(self.padding, wzero(self.engine.group_rank))]
        proj = Projective(self.engine, summands)
        epi = proj.map_from_generator_images(target, list(epi_images) + [[]])
        return proj, epi

    def extend_to(self, bound):
        while len(self.terms) <= bound:
            k, incl = self.kernels[-1]
            cov = projective_cover(self.engine, k)
            lift_images = [cov.epi.column(*pos)[1] for pos in cov.projective.gen_pos]
            proj, epi_to_k = self._pad(cov.projective, k, lift_images)
            self.terms.append(proj)
            self.maps.append(epi_to_k if incl is None else incl.compose(epi_to_k))
            self.kernels.append(kernel_subrep(epi_to_k))


def ext_oracle(engine, source_vertex, target_vertex, n, padding_vertex=None):
    """dim Ext^n(S_source, S_target), ungraded, via Hom-complex cohomology
    over a non-minimal resolution.  Independent of the table computation.

    The resolution is graded, so the ungraded Hom(Q^k, S_target) is the
    direct sum over shifts h of the graded Hom(Q^k, S_target[h]), and so
    is its cohomology.
    """
    res = _OracleResolution(engine, source_vertex, padding_vertex)
    res.extend_to(n + 1)

    def flat(mmap):
        vec = []
        for m in mmap.dense().values():
            for row in m.rows:
                vec.extend(row)
        return vec

    def dstar_rank(basis_k, k):
        """Rank of Hom(Q^k, T) -> Hom(Q^{k+1}, T), psi -> psi o d_{k+1}."""
        if not basis_k:
            return 0
        d = res.maps[k + 1]
        cols = [flat(psi.compose(d)) for psi in basis_k]
        if not cols[0]:
            return 0
        return Matrix.from_columns(engine.field, cols, len(cols[0])).rank()

    # Hom^n vanishes at shifts h with no slice (target, h) in Q^n
    shifts = [g for v, g in res.terms[n].rep.dims if v == target_vertex]
    total = 0
    for h in shifts:
        target = simple_module(engine, target_vertex, shift=h)
        hom = {k: hom_space(res.terms[k].rep, target) for k in (n - 1, n) if k >= 0}
        total += len(hom[n]) - dstar_rank(hom[n], n)
        if n >= 1:
            total -= dstar_rank(hom[n - 1], n - 1)
    return total
