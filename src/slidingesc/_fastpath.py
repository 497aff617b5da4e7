"""The fast path of the closed loop.

``run_chunked`` needs only numpy: it advances the loop in event chunks,
agreeing with the reference loop of :mod:`slidingesc.sim` to rounding,
as pinned in tests.  The quadratic objective is folded into the
kernel's affine prediction.  A run is as many chunks as relay flips and
direction changes, and a chunk costs a nearly fixed number of numpy
calls whatever its length, so the kernel keeps that number small: each
chunk starts from the row the chunk before it accepted last, without
evaluating it again, and writes into work arrays allocated once per
run.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import (ControllerState, direction_index,
                         sliding_variable_step)
from .errors import finite_escape

# Bounds on the steps predicted per chunk of run_chunked: a chunk
# predicts about twice the previous chunk's accepted run.
CHUNK_MIN = 32
CHUNK_MAX = 256


def run_chunked(plant, constants, config, v0, plant_eta):
    """The closed loop of the reference ``sim._run_python``, with its
    arguments, logged columns and finite-escape abort; the plant is
    read, not moved.

    While the relay sign and the search direction hold, u is constant
    and one Euler step of X = (v, x) is affine, X <- M X + b(u).  Each
    chunk therefore predicts up to K steps at once, with one matvec of
    the powers M^j and their partial sums, evaluates the controller on
    all of them in vector form, and accepts the steps before the first
    one whose relay sign differs from the chunk's first step (an
    event); the next chunk starts there, and K is about twice the run
    just accepted, between CHUNK_MIN and CHUNK_MAX.  The direction is
    ``controller.direction_index`` of the step counter k, and a chunk
    also ends where the next direction starts.  The reference
    ramp and the sliding integral are running sums formed in step order,
    so they follow ``controller_step``'s arithmetic exactly; the
    predicted states agree with the step-by-step recurrence to rounding.

    Row 0 of a chunk, the step it starts at, is carried over: the chunk
    before it predicted and evaluated that row as its last accepted one
    and logged it with the direction and relay sign it starts, so a
    chunk evaluates rows 1..R only, seeds the sliding integral with the
    value after row 0, and the run ends with the chunk that reaches the
    horizon.  Step 0 is evaluated and logged before the first chunk.
    The chunks share work arrays allocated once per run, reached through
    views made the first time a chunk of a given length runs.
    """
    p_eff, lambda_eff, rho = (constants.p_eff, constants.lambda_eff,
                              constants.rho)
    epsilon_sw, y_sat, y_m0 = (constants.epsilon_sw, constants.y_sat,
                               constants.y_m0)
    sub_steps, n_dirs = constants.sub_steps, constants.n_dirs
    A, B, C = plant.lti.A, plant.lti.B, plant.lti.C
    H, z_star, y_star = plant.map.H, plant.map.z_star, plant.map.y_star
    dt, n_steps, stride = config.dt, config.n_steps, config.log_stride
    n = A.shape[0]
    m = B.shape[1]
    N = m + n          # stacked state X = (v, x)
    # a predicted row is (v, x, d, h) with d = z - z* and h = H d / 2, so
    # that y = y* + d.h; the matvec takes (v, x, 1, w) with w = dt*u
    D = slice(N, N + n)
    L = N + 2 * n
    P = N + 1 + m

    h = dt * (1.0 / plant_eta)
    M = np.eye(N)
    M[m:, :m] = h * B
    M[m:, m:] += h * A
    out = np.zeros((L, N))
    out[:N] = np.eye(N)
    out[D, m:] = C
    out[N + n:, m:] = 0.5 * (H @ C)
    const = np.zeros(L)
    const[D] = -z_star
    const[N + n:] = -0.5 * (H @ z_star)
    # row j of a chunk is G[j] @ (v, x, 1, w): M^j (v, x), the offsets of
    # d and h, and the sum of M^i for i < j applied to the kicks w of v;
    # the powers stop where they are no longer finite (an escaping plant)
    cap = max(1, min(CHUNK_MAX, n_steps))
    power = np.empty((cap + 1, N, N))
    power[0] = np.eye(N)
    total = np.zeros((cap + 1, N, m))
    G = np.empty((cap + 1, L, P))
    G[:, :, N] = const
    with np.errstate(all="ignore"):
        j = 1
        while j <= cap:           # M^i for j <= i < 2j from those below j
            top = min(2 * j, cap + 1)
            power[j:top] = power[:top - j] @ (power[j - 1] @ M)
            j = top
        np.cumsum(power[:-1, :, :m], axis=0, out=total[1:])
        np.matmul(out, power, out=G[:, :, :N])
        np.matmul(out, total, out=G[:, :, N + 1:])
        finite = np.isfinite(G).all(axis=(1, 2))
    if not finite.all():
        cap = max(1, int(finite.argmin()) - 1)
    G = G[:cap + 1].reshape((cap + 1) * L, P)
    # u for direction i and relay sign up (0: -1, 1: +1) by control_law's
    # arithmetic, -0.0 included
    u_rows = np.empty((m, 2, m))
    for i in range(m):
        sigma = np.zeros(m)
        sigma[i] = 1.0
        u_rows[i, 0] = rho * sigma * -1.0
        u_rows[i, 1] = rho * sigma * 1.0
    u_rows = u_rows.reshape(2 * m, m)

    pi_over_eps = math.pi / epsilon_sw
    # 0-d arrays: ufuncs take them with less overhead than Python floats
    arg_scale, y_offset, s_step, zero = (
        np.array(c) for c in (pi_over_eps, y_star, lambda_eff * dt, 0.0))

    # Work arrays, allocated once and written in place by every chunk.
    # Index r is row r of a chunk; row 0 is the step the chunk starts at,
    # which the chunk before it predicted, evaluated and logged, so only
    # rows 1..R are evaluated.  The product still forms row 0, unused:
    # BLAS may round a row by its place in the product (a product of
    # rows 1..R alone changes the last bit of some rows for some plant
    # sizes), and over rows 0..R every row keeps the rounding it had when
    # each chunk evaluated its row 0 again, so outputs reproduce bit for
    # bit.  ``flat`` holds the predicted rows (v, x, d, h) and after them
    # the relay argument of rows 1..R, which its sine overwrites, so that
    # one sum of squares covers rows 1..R and their sines.
    flat = np.empty((cap + 1) * L + cap)
    sig = np.empty((3, cap + 1))       # y, y_m and s of the rows
    Y, ym, S = sig
    inc = np.empty(cap + 1)    # the integral carried in, then increments
    acc = np.empty(cap + 1)    # the sliding integral after each row
    event = np.zeros(cap + 1, bool)    # event[0] stays False
    ramp = np.full(cap + 1, p_eff * dt)
    # (v, x) of row j, where the next chunk starts if j is accepted last
    states = [flat[j * L:j * L + N] for j in range(cap + 1)]
    # the matvec's right-hand side (v, x, 1, w) for each control code
    xts = np.zeros((2 * m, P))
    xts[:, N] = 1.0
    xts[:, N + 1:] = dt * u_rows
    heads = [xt[:N] for xt in xts]
    # the views a chunk of R steps works on, made the first time a chunk
    # of that length runs: "0" views hold rows 0..R, the others 1..R
    # (``tested`` is rows 1..R of ``flat`` and their sines)
    cache = {}

    def chunk_views(R):
        rows = R + 1
        W = flat[:rows * L].reshape(rows, L)
        cache[R] = views = (
            G[:rows * L], flat[:rows * L], flat[L:rows * L + R], W, W[1:, D],
            W[1:, N + n:], Y[1:rows], ym[:rows], ym[1:rows], S[1:rows],
            inc[:rows], inc[1:rows], acc[:rows], acc[1:rows],
            flat[rows * L:rows * L + R], event[:rows], event[1:rows],
            ramp[:rows])
        return views

    n_rec = n_steps // stride + 1
    w_log = np.empty((n_rec, N + n))       # v, x, d
    sig_log = np.empty((3, n_rec))         # y, y_m, s
    code_log = np.empty(n_rec, np.int64)   # 2 * direction index + up

    def result(rec):
        # t, z, e, u and dir from what was logged, in place where the
        # log is no longer needed
        t = np.arange(0.0, rec * stride, stride)
        t *= dt
        w_log[:rec, D] += z_star
        y, y_m, s = sig_log[:, :rec]
        code = code_log[:rec]
        u = u_rows[code]
        code //= 2
        code += 1
        return (t, w_log[:rec, :m], w_log[:rec, m:N], w_log[:rec, D], y, y_m,
                y - y_m, s, u, code)

    # step 0, the first chunk's start row, is evaluated and logged here
    xt = np.zeros(P)
    xt[:m] = v0
    xt[m:N] = config.x0
    xt[N] = 1.0
    with np.errstate(all="ignore"):
        w0 = G[:L] @ xt
        y0 = float(np.vecdot(w0[D], w0[N + n:]) + y_star)
    state = ControllerState(y_m0)
    s0 = sliding_variable_step(state, y0 - y_m0, lambda_eff, dt)
    if not math.isfinite(pi_over_eps * s0):  # so is a non-finite y0
        raise finite_escape(0, dt)
    # the relay sign of step 0 by the same np.sin as every later row
    up = int(np.sin(pi_over_eps * np.array([s0]))[0] >= 0.0)
    code = up
    w_log[0] = w0[:N + n]
    sig_log[:, 0] = y0, y_m0, s0
    code_log[0] = code
    start = w0[:N]
    y_m_start, s_int = y_m0, state.s_int
    ramping = y_m0 < y_sat
    if not ramping:
        ym.fill(y_sat)
    k, rec = 0, 1
    K = min(CHUNK_MIN, cap)
    # At a short chunk's sizes a call's overhead outweighs its arithmetic,
    # and name lookups and out= keywords add to it measurably, so the
    # loop calls local names and passes a ufunc's output positionally.
    matmul, vecdot, subtract, sign, multiply, sin, dot = (
        np.matmul, np.vecdot, np.subtract, np.sign, np.multiply, np.sin, np.dot)
    accumulate, less, greater_equal = (
        np.add.accumulate, np.less, np.greater_equal)
    isfinite = math.isfinite
    # rows past an event are discarded predictions, so overflow there is
    # no error; a non-finite row the loop reaches aborts the run below
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # the chunk stops at the next direction's first step
            R = min(K, n_steps - k, sub_steps - k % sub_steps)
            (G0, flat0, tested, W, d_rows, h_rows, y, ym0, y_m, s, inc0,
             incs, acc0, accs, sines, event0, events, ramp0) = (
                 cache.get(R) or chunk_views(R))
            heads[code][...] = start
            matmul(G0, xts[code], out=flat0)
            vecdot(d_rows, h_rows, y)
            y += y_offset
            if ramping:
                ramp[0] = y_m_start
                accumulate(ramp0, out=ym0)
                if ym0.item(R) > y_sat:
                    np.minimum(ym0, y_sat, out=ym0)
            subtract(y, y_m, s)         # e, for now
            inc[0] = s_int
            sign(s, incs)
            multiply(incs, s_step, incs)
            accumulate(inc0, out=acc0)
            s += accs
            multiply(arg_scale, s, sines)
            sin(sines, sines)
            # rows whose relay sign differs from the chunk's
            differs = less if up else greater_equal
            differs(sines, zero, events)
            J = int(event0.argmax()) or R
            # a non-finite entry makes this sum of squares non-finite (so
            # may a huge finite state: the exact test tells them apart); a
            # sine is non-finite exactly where its argument is
            if not isfinite(dot(tested, tested)):
                x_ok = np.isfinite(W[1:, m:N]).all(axis=1)
                finite = x_ok & np.isfinite(sines)
                f = int(finite.argmin())
                if not finite[f] and f < J:
                    # row f+1: the state is non-finite after step k+f, or
                    # its output or relay argument is at step k+f+1
                    raise finite_escape(k + f + (1 if x_ok[f] else 0), dt)

            # row J starts the next chunk with its own direction and
            # relay sign
            up = int(sines.item(J - 1) >= 0.0)
            k_next = k + J
            code_next = 2 * direction_index(k_next, sub_steps, n_dirs) + up
            first = stride - k % stride   # the first logged row after row 0
            if first <= J:
                sel = slice(first, J + 1, stride)
                r1 = rec + (J - first) // stride + 1
                w_log[rec:r1] = W[sel, :N + n]
                sig_log[:, rec:r1] = sig[:, sel]
                code_log[rec:r1] = code
                if k_next % stride == 0:
                    code_log[r1 - 1] = code_next
                rec = r1
            if k_next == n_steps:
                return result(rec)

            k, code, start = k_next, code_next, states[J]
            s_int = acc.item(J)
            if ramping:
                y_m_start = ym.item(J)
                ramping = y_m_start < y_sat
                if not ramping:
                    ym.fill(y_sat)
            K = min(max(2 * J, CHUNK_MIN), cap)
