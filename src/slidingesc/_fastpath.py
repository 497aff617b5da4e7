"""The fast path of the closed loop.

``run_chunked`` needs only numpy: it advances the loop in event chunks,
agreeing with the reference loop of :mod:`slidingesc.sim` to rounding,
as pinned in tests.  The quadratic objective is folded into the
kernel's affine prediction.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import ControllerState, sliding_variable_step
from .errors import SimulationAbort

# Bounds on the steps predicted per chunk of run_chunked: a chunk
# predicts about twice the previous chunk's accepted run.
CHUNK_MIN = 32
CHUNK_MAX = 256


def run_chunked(A, B, C, H, z_star, y_star, v, x, dt, n_steps, constants,
                stride, plant_rate):
    """Integrate the closed loop and log every ``stride``-th step.

    The arguments are the plant matrices, the quadratic map
    (``H``, ``z_star``, ``y_star``), the initial ``v`` and ``x``, the
    step and step count, the controller's ``ControllerConstants`` for
    that step, the log stride and the plant rate 1/plant_eta.  Returns
    the logged rows of (t, v, x, z, y, y_m, e, s, u, dir); raises
    SimulationAbort when a non-finite value appears.

    While the relay sign and the search direction hold, u is constant
    and one Euler step of X = (v, x) is affine, X <- M X + b(u).  Each
    chunk therefore predicts up to K steps at once, with one matvec of
    the powers M^j and their partial sums, evaluates the controller on
    all of them in vector form, and accepts the steps before the first
    one whose relay sign differs from the chunk's first step (an
    event); the next chunk starts there, and K is about twice the run
    just accepted, between CHUNK_MIN and CHUNK_MAX.  The direction
    follows the step counter k as in ``controller.direction_index``, so
    a chunk also ends where the next direction starts.  The reference
    ramp and the sliding integral are running sums formed in step order,
    so they follow ``controller_step``'s arithmetic exactly; the
    predicted states agree with the step-by-step recurrence to rounding.
    """
    p_eff, lambda_eff, rho = (constants.p_eff, constants.lambda_eff,
                              constants.rho)
    epsilon_sw, y_sat, y_m0 = (constants.epsilon_sw, constants.y_sat,
                               constants.y_m0)
    sub_steps, n_dirs = constants.sub_steps, constants.n_dirs
    n = A.shape[0]
    m = B.shape[1]
    N = m + n          # stacked state X = (v, x)
    # a predicted row is (v, x, d, h) with d = z - z* and h = H d / 2, so
    # that y = y* + d.h; the matvec takes (v, x, 1, w) with w = dt*u
    D = slice(N, N + n)
    L = N + 2 * n
    P = N + 1 + m

    h = dt * plant_rate
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
    # arithmetic, -0.0 included; w_rows is dt*u as a list
    u_rows = np.empty((m, 2, m))
    for i in range(m):
        sigma = np.zeros(m)
        sigma[i] = 1.0
        u_rows[i, 0] = rho * sigma * -1.0
        u_rows[i, 1] = rho * sigma * 1.0
    u_rows = u_rows.reshape(2 * m, m)
    w_rows = list(dt * u_rows)

    pi_over_eps = math.pi / epsilon_sw
    # 0-d arrays: ufuncs take them with less overhead than Python floats
    arg_scale, y_offset, s_step, zero = (
        np.array(c) for c in (pi_over_eps, y_star, lambda_eff * dt, 0.0))
    ramp = np.full(cap + 1, p_eff * dt)
    saturated = np.full(cap + 1, y_sat)
    inc = np.empty(cap + 2)

    n_rec = n_steps // stride + 1
    w_log = np.empty((n_rec, N + n))       # v, x, d
    y_log = np.empty(n_rec)
    ym_log = np.empty(n_rec)
    s_log = np.empty(n_rec)
    code_log = np.empty(n_rec, np.int64)   # 2 * direction index + up

    def escape(k_fail):
        return SimulationAbort(
            f"non-finite state after step at t={k_fail * dt:.6g} "
            "(finite-escape guard)")

    def result(rec):
        # t, z, e, u and dir from what was logged, in place where the
        # log is no longer needed
        t = np.arange(0.0, rec * stride, stride)
        t *= dt
        w_log[:rec, D] += z_star
        y, ym, code = y_log[:rec], ym_log[:rec], code_log[:rec]
        u = u_rows[code]
        code //= 2
        code += 1
        return (t, w_log[:rec, :m], w_log[:rec, m:N], w_log[:rec, D], y, ym,
                y - ym, s_log[:rec], u, code)

    xt = np.zeros(P)
    xt[:m] = v
    xt[m:N] = x
    xt[N] = 1.0
    with np.errstate(all="ignore"):
        w0 = G[:L] @ xt
        y0 = float(np.vecdot(w0[D], w0[N + n:]) + y_star)
    if not math.isfinite(y0):
        raise escape(0)
    s0 = sliding_variable_step(ControllerState(y_m0), y0 - y_m0, lambda_eff, dt)
    y_m, s_int = y_m0, 0.0
    k = rec = 0
    K = min(CHUNK_MIN, cap)
    # rows past an event are discarded predictions, so overflow there is
    # no error; a non-finite row the loop reaches aborts the run below
    with np.errstate(over="ignore", invalid="ignore"):
        # the relay sign of step 0 by the same np.sin as every later row
        # (a non-finite argument gives nan, i.e. -1, as in the rows); each
        # later chunk starts with the sign its first step was given
        up = int(np.sin(pi_over_eps * np.array([s0]))[0] >= 0.0)
        while True:
            # the direction of step k by controller.direction_index's
            # formula; the chunk stops at the next direction's first step
            i = k // sub_steps % n_dirs
            R = min(K, n_steps - k, sub_steps - k % sub_steps)
            rows = R + 1
            code = 2 * i + up
            xt[:N] = w0[:N]
            xt[N + 1:] = w_rows[code]
            flat = G[:rows * L] @ xt
            W = flat.reshape(rows, L)
            W[0] = w0
            Y = np.vecdot(W[:, D], W[:, N + n:])
            Y += y_offset
            Y[0] = y0
            if y_m >= y_sat:
                ym = saturated[:rows]
            else:
                ramp[0] = y_m
                ym = np.add.accumulate(ramp[:rows])
                if ym.item(R) > y_sat:
                    np.minimum(ym, y_sat, out=ym)
            E = Y - ym
            inc[0] = s_int
            np.multiply(np.sign(E), s_step, out=inc[1:rows + 1])
            acc = np.add.accumulate(inc[:rows + 1])
            S = E + acc[1:]
            if R == 0:
                J = 1
            else:
                arg = arg_scale * S
                sine = np.sin(arg)
                # rows whose relay sign differs from the chunk's
                event = sine < zero if up else sine >= zero
                event[0] = False
                J = int(event.argmax()) or R
                # a non-finite entry makes these sums of squares non-finite
                # (so may a huge finite one: the exact test tells them apart)
                if not math.isfinite(np.dot(flat, flat) + np.dot(arg, arg)):
                    x_ok = np.isfinite(W[:, m:N]).all(axis=1)
                    finite = x_ok & np.isfinite(arg)
                    f = int(finite.argmin())
                    if not finite[f] and f <= J:
                        # the state is non-finite after step k+f-1, or its
                        # output or relay argument is at step k+f
                        raise escape(k + f - (0 if x_ok[f] else 1))

            first = (-k) % stride
            if first < J:
                sel = slice(first, J, stride)
                r1 = rec + len(range(first, J, stride))
                w_log[rec:r1] = W[sel, :N + n]
                y_log[rec:r1] = Y[sel]
                ym_log[rec:r1] = ym[sel]
                s_log[rec:r1] = S[sel]
                code_log[rec:r1] = code
                rec = r1
            if R == 0:
                return result(rec)

            k += J
            w0, y0, y_m = W[J], Y.item(J), ym.item(J)
            s_int = acc.item(J)
            up = int(sine.item(J) >= 0.0)
            K = min(max(2 * J, CHUNK_MIN), cap)
