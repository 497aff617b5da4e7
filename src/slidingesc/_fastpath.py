"""The fast path of the closed loop, for quadratic objectives.

``run_chunked`` needs only numpy: it advances the loop in event chunks,
agreeing with the reference loop of :mod:`slidingesc.sim` to rounding,
as pinned in tests.  Only quadratic maps are supported because the map
evaluation runs inside the kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import ControllerState, sliding_variable_step

# Steps predicted per chunk of run_chunked.
CHUNK = 64


def run_chunked(A, B, C, H, z_star, y_star, v, x, dt, n_steps,
                p_eff, lambda_eff, rho, epsilon_sw, y_sat, y_m0,
                period, n_dirs, stride, plant_rate):
    """Integrate the closed loop and log every ``stride``-th step.

    The arguments are the plant matrices, the quadratic map
    (``H``, ``z_star``, ``y_star``), the initial ``v`` and ``x``, the
    step and step count, the effective gains, the relay band, the
    saturation and initial value of the reference, the search period
    and direction count, the log stride and the plant rate
    1/plant_eta.  Returns the logged arrays (t, v, x, z, y, y_m, e, s,
    u, dir) plus (rec, ok, k_fail): rec rows are filled, and ok is
    False when a non-finite value appeared, with k_fail the step index.

    While the relay sign and the search direction hold, u is constant
    and one Euler step of X = (v, x) is affine, X <- M X + b(u).  Each
    chunk therefore predicts up to CHUNK steps at once from the powers
    M^j and their partial sums, evaluates the controller on all of them
    in vector form, and accepts the steps before the first one whose
    relay sign or direction differs from the chunk's first step (an
    event); the next chunk starts there.  The reference ramp, the
    sliding integral and the accumulated clock are running sums formed
    in step order, so they follow ``controller_step``'s arithmetic
    exactly; the predicted states agree with the step-by-step recurrence
    to rounding.
    """
    n = A.shape[0]
    m = B.shape[1]
    N = m + n          # stacked state X = (v, x)
    L = N + n          # predicted row (v, x, z)
    K = min(CHUNK, n_steps)

    h = dt * plant_rate
    M = np.eye(N)
    M[m:, :m] = h * B
    M[m:, m:] += h * A
    out = np.zeros((L, N))
    out[:N] = np.eye(N)
    out[N:, m:] = C
    # row j of a chunk: G[j] @ X plus the response F[j] to a unit kick
    # of one v component per step
    G = np.empty((K + 1, L, N))
    F = np.empty((K + 1, L, m))
    power = np.eye(N)
    total = np.zeros((N, N))
    for j in range(K + 1):
        G[j] = out @ power
        F[j] = out @ total[:, :m]
        total = total + power
        power = M @ power
    G = G.reshape((K + 1) * L, N)
    # forced[i, up]: response to u = rho * e_i * (+1 if up else -1)
    forced = np.empty((m, 2, K + 1, L))
    forced[:, 1] = (dt * rho) * F.transpose(2, 0, 1)
    forced[:, 0] = -forced[:, 1]
    u_rows = np.empty((m, 2, m))
    for i in range(m):
        sigma = np.zeros(m)
        sigma[i] = 1.0
        u_rows[i, 0] = rho * sigma * -1.0
        u_rows[i, 1] = rho * sigma * 1.0

    pi_over_eps = math.pi / epsilon_sw
    sub = period / n_dirs
    ds = lambda_eff * dt
    ramp = np.full(K + 1, p_eff * dt)
    clock = np.full(K + 1, dt)
    inc = np.empty(K + 2)

    n_rec = n_steps // stride + 1
    t_log = np.empty(n_rec)
    w_log = np.empty((n_rec, L))
    y_log = np.empty(n_rec)
    ym_log = np.empty(n_rec)
    e_log = np.empty(n_rec)
    s_log = np.empty(n_rec)
    u_log = np.empty((n_rec, m))
    dir_log = np.empty(n_rec, np.int64)

    def result(rec, ok, k_fail):
        return (t_log, w_log[:, :m], w_log[:, m:N], w_log[:, N:], y_log,
                ym_log, e_log, s_log, u_log, dir_log, rec, ok, k_fail)

    w0 = out @ np.concatenate((v, x))
    d = w0[N:] - z_star
    y0 = y_star + 0.5 * float(d @ (H @ d))
    if not math.isfinite(y0):
        return result(0, False, 0)
    s0 = sliding_variable_step(ControllerState(y_m0), y0 - y_m0, lambda_eff, dt)
    i = 0                      # the schedule starts on direction 1
    y_m, s_int, t = y_m0, 0.0, 0.0
    k = rec = 0
    # rows past an event are discarded predictions, so overflow there is
    # no error; a non-finite row the loop reaches aborts the run below
    with np.errstate(over="ignore", invalid="ignore"):
        # the relay sign of step 0 by the same np.sin as every later row
        # (a non-finite argument gives nan, i.e. -1, as in the rows); each
        # later chunk starts with the sign and direction its first step
        # was given
        up = int(np.sin(pi_over_eps * np.array([s0]))[0] >= 0.0)
        while True:
            R = min(K, n_steps - k)
            rows = R + 1
            W = (G[:rows * L] @ w0[:N]).reshape(rows, L)
            W += forced[i, up, :rows]
            W[0] = w0
            D = W[:, N:] - z_star
            Y = 0.5 * ((D @ H.T) * D).sum(axis=1)
            Y += y_star
            Y[0] = y0
            ramp[0] = y_m
            ym = np.minimum(np.add.accumulate(ramp[:rows]), y_sat)
            clock[0] = t
            T = np.add.accumulate(clock[:rows])
            E = Y - ym
            inc[0] = s_int
            np.multiply(np.sign(E), ds, out=inc[1:rows + 1])
            acc = np.add.accumulate(inc[:rows + 1])
            S = E + acc[1:]
            if R == 0:
                J = 1
            else:
                idx = np.minimum((np.remainder(T, period) / sub).astype(np.int64),
                                 n_dirs - 1)
                relay = np.sin(pi_over_eps * S) >= 0.0
                event = (relay != bool(up)) | (idx != i)
                event[0] = False
                J = int(event.argmax()) or R
                # any non-finite entry makes the sums non-finite
                if not math.isfinite(float(W.sum()) + float(Y.sum())):
                    x_ok = np.isfinite(W[:, m:N]).all(axis=1)
                    finite = x_ok & np.isfinite(Y)
                    f = int(finite.argmin())
                    if not finite[f] and f <= J:
                        # the state is non-finite after step k+f-1, or its
                        # output is at step k+f
                        return result(rec, False, k + f - (0 if x_ok[f] else 1))

            first = (-k) % stride
            if first < J:
                sel = slice(first, J, stride)
                r1 = rec + len(range(first, J, stride))
                t_log[rec:r1] = np.arange(k + first, k + J, stride) * dt
                w_log[rec:r1] = W[sel]
                y_log[rec:r1] = Y[sel]
                ym_log[rec:r1] = ym[sel]
                e_log[rec:r1] = E[sel]
                s_log[rec:r1] = S[sel]
                u_log[rec:r1] = u_rows[i, up]
                dir_log[rec:r1] = i + 1
                rec = r1
            if R == 0:
                return result(rec, True, -1)

            k += J
            w0, y0, y_m, s_int, t = W[J], Y[J], ym[J], acc[J], T[J]
            up, i = int(relay[J]), int(idx[J])
