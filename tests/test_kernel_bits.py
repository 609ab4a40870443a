"""Generated kernels are pinned bit for bit.

The golden digests below were produced by the scalar ``Fraction`` loop-nest
generator this repo shipped up to PR 11.  Any generator must reproduce the
same symbols, the same entry order and the same float64 bits: plan digests,
the on-disk plan cache and every cross-mode bit-identity invariant hash
exactly these bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.collisions import LBOCollisions
from repro.grid import Grid, PhaseGrid
from repro.kernels import get_vlasov_kernels, registry, registry_stats
from repro.kernels.flops import four_sided_kernels, modal_update_multiplications

_SIDES = (("L", "L"), ("L", "R"), ("R", "L"), ("R", "R"))


def termsets_digest(termsets) -> str:
    """sha256 over every termset's symbols, ``(l, m)`` int64 bytes and
    coefficient float64 bytes, in ``entries_by_symbol()`` order."""
    h = hashlib.sha256()
    for ts in termsets:
        h.update(f"{ts.nout}x{ts.nin};".encode())
        for sym, triples in ts.entries_by_symbol().items():
            h.update(repr(tuple(sym)).encode())
            h.update(np.array([(l, m) for l, m, _ in triples], dtype=np.int64).tobytes())
            h.update(np.array([c for _, _, c in triples], dtype=np.float64).tobytes())
    return h.hexdigest()


def bundle_termsets(k):
    """Volume, four-sided surface (the Fig. 1 form, generated on demand) and
    moment kernels — the digest pinned since the bundle held all three."""
    out = list(k.vol_stream) + list(k.vol_accel)
    stream, accel = four_sided_kernels(k)
    for sides in stream + accel:
        out.extend(sides[s] for s in _SIDES)
    out.extend(k.moments[name] for name in sorted(k.moments))
    return out


def face_termsets(k):
    out = []
    for face in k.face_stream + k.face_accel:
        out.extend([face.trace["L"], face.trace["R"], face.flux])
    return out


def lbo_termsets(lbo):
    """Per velocity direction the (volume, trace, flux) operators of the
    drag, LDG gradient and LDG divergence passes and the lift, then the
    weak multiplication by ``vtsq`` — read off the LBO's cell table: per
    direction the drag pass (volume, trace, flux, lift), then per direction
    the gradient pass, ``vtsq`` and the divergence pass."""
    ops = [ins.op for ins in lbo.cell_table[1] if hasattr(ins, "op")]
    vdim = lbo.grid.vdim
    drag, ldg = ops[: 4 * vdim], ops[4 * vdim :]
    out = []
    for j in range(vdim):
        d, pair = drag[4 * j : 4 * j + 4], ldg[9 * j : 9 * j + 9]
        out += d[:3] + pair[:3] + pair[5:8] + d[3:]
    return [op.termset for op in out + [ldg[4]]]


GOLDEN_BUNDLES = {
    (1, 1, 1, "serendipity"): "2e6c06afbbf5de8349397622a6708e8122e39ca5d7ca0444b36852e8d2e918f3",
    (1, 1, 2, "serendipity"): "68c0fecfbed9d276ff9112337b0f5fca529b704772e8e905c7988b13fdb1f900",
    (1, 1, 2, "tensor"): "bb08b7847c386f8845405f0dcbc4bba416a4239bba322bba8208242db89ba5f7",
    (1, 2, 2, "serendipity"): "8953505a0659f9aaa98f69686bcaad4fb35357067305938cb6c18bab57377071",
    (2, 2, 1, "serendipity"): "c82d26faa5f361df9fb950a13eeefb15a4923fc00bcc8c4a81924aaba7d56273",
    (2, 2, 2, "serendipity"): "ae6ab88b22d790b43e1f87ec3d603556f912523aca06c1f4e6f06dea3132e461",
}
# face-mode factors of the surface kernels (goldens from the PR that added
# generate_face_termsets; the side kernels above are unchanged by it)
GOLDEN_FACES = {
    (1, 1, 1, "serendipity"): "6b4af07cd88c95b59e99109367216c7bfd8314056831ad4d62816df34ad6160b",
    (1, 1, 2, "serendipity"): "8301cab4c9f4b8d4999c83950d6306e0b2832992d58723debb86c4cf3ae2cb7f",
    (1, 1, 2, "tensor"): "b04754fffb40eb7c0570c7e69edc4743d6aa1c9f9e5b9a33f2ae051fde803ca0",
    (1, 2, 2, "serendipity"): "4c884c6206478b2781a59c888580cdfba3ee8a0703dfaa6cebcb9f4ef4d0a78d",
    (2, 2, 1, "serendipity"): "07f92e8ac642d68080a13d07e65428144afeea74ed5de5c8d1c3aafd14a84e1f",
    (2, 2, 2, "serendipity"): "2984b97b41e5f3c647d8178b6435ff9eae18f183fdaaa73ecbb35361ec12a3da",
}
# the LBO's operators since its velocity faces run trace -> flux -> lift
GOLDEN_LBO_1X1V_P2 = "de53a471b14b00d8d62e4bcf4b181050cff226320fc7b3a95813984eb45fc0f9"
# exact non-zeros of every termset a 2X2V p=2 bundle holds: volume, face
# trace and face flux, moment kernels (34 464 while the bundle also held the
# four-sided surface kernels, which the cost model now generates on demand)
GOLDEN_2X2V_P2_NNZ = 3792
GOLDEN_2X2V_P2_MULTS = 69588


@pytest.mark.parametrize("key", sorted(GOLDEN_BUNDLES))
def test_bundle_bits_match_golden(key):
    assert termsets_digest(bundle_termsets(get_vlasov_kernels(*key))) == GOLDEN_BUNDLES[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_BUNDLES))
def test_face_kernel_bits_match_golden(key):
    assert termsets_digest(face_termsets(get_vlasov_kernels(*key))) == GOLDEN_FACES[key]


def test_2x2v_p2_counts_match_golden(monkeypatch):
    key = (2, 2, 2, "serendipity")
    bundle = get_vlasov_kernels(*key)
    monkeypatch.setattr(registry, "_CACHE", {("vlasov",) + key: bundle})
    assert registry_stats() == {"bundles": 1, "total_nnz": GOLDEN_2X2V_P2_NNZ}
    assert modal_update_multiplications(bundle)["total"] == GOLDEN_2X2V_P2_MULTS


def test_lbo_bits_match_golden():
    pg = PhaseGrid(Grid([0.0], [1.0], [2]), Grid([-4.0], [4.0], [4]))
    lbo = LBOCollisions(pg, 2, nu=1.0)
    assert termsets_digest(lbo_termsets(lbo)) == GOLDEN_LBO_1X1V_P2
