"""Shared builders for randomized test configurations."""

from __future__ import annotations

import itertools

import numpy as np

from tracelab import TabularSoftmaxPolicy, TargetFollowingPolicy, TokenMdp


class OneHotPolicy:
    """Puts all mass on the next required target token: zero probability elsewhere."""

    def __init__(self, mdp: TokenMdp):
        self.mdp = mdp

    def probs(self, prefix):
        from tracelab import match_length

        p = np.zeros(self.mdp.vocab_size)
        k = match_length(prefix, self.mdp.target)
        p[self.mdp.target[min(k, len(self.mdp.target) - 1)]] = 1.0
        return p


def random_small_mdp(rng: np.random.Generator) -> TokenMdp:
    """A random enumerable MDP: 2-3 tokens, horizon 2-6, random target."""
    vocab_size = int(rng.integers(2, 4))
    horizon = int(rng.integers(2, 7))
    vocab = "abcdef"[:vocab_size]
    target_len = int(rng.integers(1, horizon + 1))
    target = "".join(vocab[i] for i in rng.integers(0, vocab_size, target_len))
    return TokenMdp.from_symbols(vocab, horizon, target)


def random_tabular(mdp: TokenMdp, rng: np.random.Generator, scale: float = 0.8):
    logits = {
        key: rng.normal(0.0, scale, mdp.vocab_size)
        for key in TabularSoftmaxPolicy.zeros(mdp).logits
    }
    return TabularSoftmaxPolicy(mdp, logits, "prefix")


def random_policy_pair(mdp: TokenMdp, rng: np.random.Generator, kind: str):
    """Either a random alpha pair or a random tabular pair."""
    if kind == "alpha":
        a, b = rng.uniform(0.05, 0.95, 2)
        return TargetFollowingPolicy(mdp, a), TargetFollowingPolicy(mdp, b)
    return random_tabular(mdp, rng), random_tabular(mdp, rng)


def random_setups(count: int, seed: int):
    """Alternating alpha-pair / tabular-pair setups on random small MDPs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        mdp = random_small_mdp(rng)
        pi, mu = random_policy_pair(mdp, rng, "alpha" if i % 2 == 0 else "tabular")
        out.append((mdp, pi, mu))
    return out


def frozen_nfpo_coefficients(group, pi, mu, n_step, beta, eps_low, eps_high, mask):
    """Per-token multipliers of the trace objective, pinned at the current pi."""
    from tracelab import ratios, token_mask, traces

    coeffs = []
    for w, adv, y in zip(group.weights, group.advantages, group.trajectories):
        profile = ratios(pi, mu, y)
        trace = traces(profile, n_step, beta, eps_low, eps_high)
        keep = token_mask(mask, profile, float(adv), mu, pi, y)
        coeffs.append(w * adv * keep * trace.clipped)
    return coeffs


def frozen_objective(group, pi, mu, coeffs, minus_one: bool = False) -> float:
    """sum of c_t * rho_t (or c_t * (rho_t - 1)) with the c_t held fixed."""
    from tracelab import ratios

    total = 0.0
    for coeff, y in zip(coeffs, group.trajectories):
        rho = ratios(pi, mu, y).ratios
        total += float((coeff * (rho - 1.0 if minus_one else rho)).sum())
    return total


def finite_difference_gradient(group, pi, mu, coeffs, step=1e-6, minus_one=False):
    """Central differences of the frozen-coefficient objective over all logits."""
    grads = {}
    for key in pi.logits:
        row = np.zeros(pi.mdp.vocab_size)
        for b in range(pi.mdp.vocab_size):
            pi.logits[key][b] += step
            up = frozen_objective(group, pi, mu, coeffs, minus_one)
            pi.logits[key][b] -= 2 * step
            down = frozen_objective(group, pi, mu, coeffs, minus_one)
            pi.logits[key][b] += step
            row[b] = (up - down) / (2 * step)
        grads[key] = row
    return grads


def gradient_gap(analytic: dict, numeric: dict, keys, vocab_size: int) -> float:
    """Vector-norm relative error between two sparse gradients."""
    zero = np.zeros(vocab_size)
    a = np.concatenate([np.asarray(analytic.get(k, zero), dtype=float) for k in keys])
    f = np.concatenate([np.asarray(numeric.get(k, zero), dtype=float) for k in keys])
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(f)))
    return float(np.linalg.norm(a - f)) / scale


def brute_force_local_surrogate(mdp: TokenMdp, pi, mu, n_step: int) -> float:
    """Independent oracle: the windowed surrogate by plain Python loops."""
    total = 0.0
    for y in itertools.product(range(mdp.vocab_size), repeat=mdp.horizon):
        prob_mu = 1.0
        rho = []
        for t in range(mdp.horizon):
            prefix = y[:t]
            p_mu = float(mu.probs(prefix)[y[t]])
            prob_mu *= p_mu
            rho.append(float(pi.probs(prefix)[y[t]]) / p_mu)
        if prob_mu == 0.0:
            continue
        from tracelab import reward

        inner = 0.0
        for t in range(mdp.horizon):
            window = 1.0
            for j in range(t + 1, min(t + n_step, mdp.horizon)):
                window *= rho[j]
            inner += (rho[t] - 1.0) * window
        total += prob_mu * reward(mdp, y) * inner
    return total
