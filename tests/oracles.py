"""Reference routes and display helpers that only the tests use.

Each function here recomputes something the library computes another
way, or renders a value for a test to compare: the syndrome read off the
streamed online decoder, the commutant of an assignment that bounds the
zero-weight cycles, a bit-matrix transpose one bit at a time, one
encoder's cycle state computed from scratch, the shifted products of
framed sequences frame by frame, the skeleton products telescoped frame
by frame, a code's text form, and small views of skeletons, requirement
matrices and maps.  The library does not export them; the commands never
reach them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from qconvenc import gf2
from qconvenc.catastrophic import _periodic_part
from qconvenc.circuit import SymplecticMap, _dual, _field, _place
from qconvenc.code import ConvolutionalCode, FramedPauliSequence
from qconvenc.decoder import DecoderResult
from qconvenc.pauli import PauliOperator
from qconvenc.simulate import _infer_frames
from qconvenc.skeleton import (
    Chain,
    CommutationRequirement,
    MemoryAssignment,
    TransformationSkeleton,
    build_skeleton,
    skeleton_commutation_matrix,
)


def syndrome_by_decoder(
    decoder: DecoderResult, error: PauliOperator, nframes: Optional[int] = None
) -> Tuple[int, ...]:
    """Syndrome read off the streamed online decoder.

    The bit for generator a launched at frame t appears as the X-component
    on syndrome wire a after decoder application t + span_a - 1, so the
    decoder runs past the window on identity frames until every in-window
    launch has been read.
    """
    code = decoder.code
    n, k = code.n, code.k
    nframes = _infer_frames(code, error, nframes)
    m = decoder.memory
    dmap = decoder.map
    spans = [g.span for g in code.generators]
    napps = nframes + max(spans) - 1
    mem = PauliOperator.identity(m)
    anc_x: List[int] = []
    for s in range(1, napps + 1):
        if s <= nframes:
            frame = error.part((s - 1) * n, s * n)
        else:
            frame = PauliOperator.identity(n)
        out = dmap.apply(mem.tensor(frame))
        anc_x.append(out.x & ((1 << (n - k)) - 1))
        mem = out.part(n, n + m)
    bits: List[int] = []
    for t in range(1, nframes + 1):
        for a, span in enumerate(spans, 1):
            bits.append((anc_x[t + span - 2] >> (a - 1)) & 1)
    return tuple(bits)


def admissible_cycle_states(
    skeleton: TransformationSkeleton, assignment: MemoryAssignment
) -> List[PauliOperator]:
    """Generators of the memory subgroup that zero-weight cycles live in.

    Every state on a zero-weight cycle commutes with every assigned memory
    operator: iterating the boundary relation sp(state, g_{a,t}) =
    sp(previous state, g_{a,t-1}) down to the identity boundary kills each
    product in turn.  The commutant is returned as an independent
    generator list (empty for the trivial subgroup).
    """
    if len(assignment.operators) != len(skeleton.unknowns()):
        raise ValueError("assignment does not match the skeleton's unknown count")
    m = assignment.m
    if m == 0:
        return []
    duals = [_dual(op.vec(), m) for op in assignment.operators]
    basis = gf2.nullspace(duals, 2 * m)
    return [PauliOperator.from_vec(m, v) for v in basis]


def transpose(images: List[int], nbits: int) -> List[int]:
    """Bit j of row i is bit i of images[j], assembled one bit at a time."""
    return [sum(((img >> i) & 1) << j for j, img in enumerate(images)) for i in range(nbits)]


def encoder_cycle_state(images: List[int], n: int, k: int, m: int) -> Optional[Tuple[int, List[int]]]:
    """The leaf check of one encoder, everything computed afresh: from its
    images of the memory X's, memory Z's and ancilla Z's, a memory state on
    a zero-weight cycle with nonzero info part and the images of T, or None.
    The completion search shares this work between sibling leaves."""
    w = m + n
    duals = [_field(_dual(v, w), w, n, m) for v in images]
    pull = duals[m:2 * m] + duals[:m]
    ts = transpose(pull, 2 * m)
    basis = _periodic_part(ts, pull, duals[2 * m:], m)
    reduced, pivots = gf2.row_reduce(images)
    for b in basis:
        if gf2.residue(reduced, pivots, _place(b, m, n, w)):
            return b, ts
    return None


def polynomial_to_text(mask: int) -> str:
    """Inverse of `parse_polynomial`: bit t of the mask is the coefficient of D^t."""
    terms = []
    t = 0
    while mask:
        if mask & 1:
            terms.append("1" if t == 0 else ("D" if t == 1 else f"D^{t}"))
        mask >>= 1
        t += 1
    return "+".join(terms) if terms else "0"


def render_code(code: ConvolutionalCode) -> str:
    """Code-file text that `parse_code` reads back as the same code."""
    lines = [f"n={code.n}"]
    lines += [g.to_string() for g in code.generators]
    return "\n".join(lines) + "\n"


def as_pauli(seq: FramedPauliSequence, nframes: int) -> PauliOperator:
    """Flatten onto a window of `nframes` frames (must contain the span)."""
    if nframes < seq.span:
        raise ValueError("window shorter than the sequence span")
    out = PauliOperator.identity(0)
    for t in range(1, nframes + 1):
        out = out.tensor(seq.frame(t))
    return out


def sp_at_shift(a: FramedPauliSequence, b: FramedPauliSequence, shift: int) -> int:
    """Symplectic product of a with b delayed by `shift` frames, frame by frame."""
    acc = 0
    for t, f in enumerate(a.frames, 1):
        acc ^= f.sp(b.frame(t - shift))
    return acc


def first_anticommuting_shift(
    generators: Tuple[FramedPauliSequence, ...], nu: int
) -> Optional[Tuple[int, int, int]]:
    """The (a, b, shift) that `code.validate` reports first, found by
    `sp_at_shift` in its order; None when every pair commutes."""
    for a, ga in enumerate(generators, 1):
        for b, gb in enumerate(generators, 1):
            if b < a:
                continue
            for shift in range(nu):
                if sp_at_shift(ga, gb, shift):
                    return a, b, shift
                if shift and sp_at_shift(gb, ga, shift):
                    return b, a, shift
    return None


def fgg_transformation_rows() -> List[Tuple[PauliOperator, PauliOperator]]:
    """The four (input, output) rows the FGG encoder must implement,
    with memory choice g1 = X, g2 = Z."""
    rows = [
        ("I ZI I", "XXX X"),
        ("I IZ I", "ZZZ Z"),
        ("X II I", "XZY I"),
        ("Z II I", "ZYX I"),
    ]
    return [
        (PauliOperator.from_string(a), PauliOperator.from_string(b)) for a, b in rows
    ]


def anticommuting_pairs(matrix: CommutationRequirement) -> List[Tuple[int, int]]:
    """Index pairs i < j whose required product is 1."""
    return [
        (i, j)
        for i in range(matrix.size)
        for j in range(i + 1, matrix.size)
        if matrix.entry(i, j)
    ]


def required_commutation_matrix(code: ConvolutionalCode) -> CommutationRequirement:
    return skeleton_commutation_matrix(build_skeleton(code))


def skeleton_rows(skeleton: TransformationSkeleton) -> List[Tuple[int, int]]:
    """Display rows as (chain, frame) ordered t-major then chain."""
    out = []
    max_span = max((c.span for c in skeleton.chains), default=0)
    for t in range(1, max_span + 1):
        for i, c in enumerate(skeleton.chains, 1):
            if t <= c.span:
                out.append((i, t))
    return out


def compose(first: SymplecticMap, then: SymplecticMap) -> SymplecticMap:
    """`first` followed by `then`."""
    return SymplecticMap(first.width, tuple(gf2.matmul(first.rows, then.rows)))


def telescope(ci: Chain, s: int, cj: Chain, t: int) -> int:
    """The forced product sp(g_{i,s}, g_{j,t}) of two skeleton slots, summed
    frame by frame down to the identity boundary."""
    acc = 0
    for r in range(min(s, t)):
        acc ^= ci.inputs[s - 1 - r].sp(cj.inputs[t - 1 - r])
        acc ^= ci.outputs[s - 1 - r].sp(cj.outputs[t - 1 - r])
    return acc


def telescoped_requirement(
    skeleton: TransformationSkeleton,
) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """The unknowns' product rows by `telescope`, and every (chain i, chain
    j, frame t) whose boundary product with chain i at its full span is 1,
    in (i, j, t) order."""
    chains = skeleton.chains
    unknowns = skeleton.unknowns()
    rows = [
        sum(telescope(chains[i - 1], s, chains[j - 1], t) << col for col, (j, t) in enumerate(unknowns))
        for i, s in unknowns
    ]
    bad = [
        (i, j, t)
        for i, ci in enumerate(chains, 1)
        for j, cj in enumerate(chains, 1)
        for t in range(1, cj.span + 1)
        if telescope(ci, ci.span, cj, t)
    ]
    return rows, bad
