"""Gridworld mining expedition: navigate to the goal, clearing mines with the
one tool type that applies to each mine type.

Actions 0..3 turn and try to move (right, down, left, up); actions 4..4+T-1
apply tool t to the cell in front. Each tool matches exactly one mine type and
either breaks it or transmutes it into a type whose own tool breaks it.
"""

from __future__ import annotations

import numpy as np

from ..actions import ActionTable
from ..checks import checked_int
from .base import Env

RIGHT, DOWN, LEFT, UP = 0, 1, 2, 3
_DELTAS = {RIGHT: (1, 0), DOWN: (0, 1), LEFT: (-1, 0), UP: (0, -1)}
BREAK = -1

_EMPTY = -1
_WALL = -2

R_GOAL = 10.0  # reaching the goal at t = 0; LAMBDA_GOAL of it decays linearly to t = HORIZON
R_STEP = 0.1  # per cell of Manhattan distance gained
R_TOOL = 0.1  # applying the tool that matches the mine in front
R_BONUS = 0.1  # extra, when that tool breaks the mine
LAMBDA_GOAL = 0.9
HORIZON = 100
BREAK_FRACTION = 0.7  # share of tools that break their mine outright

GRID_SIZE = 10  # the board, walls included
START = (1, 1)
GOAL = (8, 8)
# the inner cells a mine may take: all but the start and the goal, x-major
_FREE = tuple(
    (x, y)
    for x in range(1, GRID_SIZE - 1)
    for y in range(1, GRID_SIZE - 1)
    if (x, y) not in (START, GOAL)
)


def make_tool_map(n_types: int) -> tuple[tuple[int, int], ...]:
    """tool t -> (applicable mine type, outcome), drawn from seed 0; outcome is
    BREAK or a target type whose tool breaks, so every clearing chain has
    length at most two."""
    rng = np.random.default_rng(0)
    n_break = max(1, int(round(BREAK_FRACTION * n_types)))
    breakers = set(rng.choice(n_types, size=n_break, replace=False).tolist())
    mapping = []
    break_list = sorted(breakers)
    for t in range(n_types):
        if t in breakers:
            mapping.append((t, BREAK))
        else:
            mapping.append((t, int(break_list[rng.integers(0, len(break_list))])))
    return tuple(mapping)


def mining_action_table(tool_map: tuple[tuple[int, int], ...]) -> ActionTable:
    """4-D representations in [0, 1]: skill kind, move direction, applicable
    mine type, application outcome; one tool row per entry of ``tool_map``."""
    k = len(tool_map)
    rows = []
    for d in range(4):
        rows.append([0.0, d / 3.0, 0.0, 0.0])
    for mine_type, outcome in tool_map:
        out = 1.0 if outcome == BREAK else outcome / k
        rows.append([1.0, 0.0, mine_type / max(k - 1, 1), out])
    return ActionTable(reps=np.asarray(rows))


class MiningEnv(Env):
    """``n_mines`` mines of ``n_mine_types`` types on the walled ``GRID_SIZE``
    square, from ``START`` to ``GOAL``; tool t is
    ``make_tool_map(n_mine_types)[t]``. Raises ``ValueError`` unless there is
    at least one mine type and ``n_mines`` fits the 62 free inner cells."""

    def __init__(self, n_mine_types: int = 50, n_mines: int = 8, seed: int = 0):
        if checked_int(n_mine_types, "n_mine_types") < 1:
            raise ValueError("need at least one mine type")
        self._n_mines = checked_int(n_mines, "n_mines")
        if not 0 <= self._n_mines <= len(_FREE):
            raise ValueError(f"n_mines must be in [0, {len(_FREE)}], the free inner cells, got {n_mines!r}")
        self._tool_map = make_tool_map(n_mine_types)
        super().__init__(seed, HORIZON, mining_action_table(self._tool_map), 8 + len(self._tool_map))

    # --- layout -----------------------------------------------------------

    def _new_layout(self):
        grid = np.full((GRID_SIZE, GRID_SIZE), _EMPTY, dtype=np.int64)
        grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = _WALL
        for idx in self._rng.choice(len(_FREE), size=self._n_mines, replace=False):
            x, y = _FREE[int(idx)]
            grid[x, y] = int(self._rng.integers(0, len(self._tool_map)))
        return grid

    def _reset(self) -> np.ndarray:
        self._grid = self._new_layout()
        self._pos = START
        self._dir = RIGHT
        return self._observe()

    # --- observation ------------------------------------------------------

    def _cell(self, x: int, y: int) -> int:
        return int(self._grid[x, y])

    def _observe(self) -> np.ndarray:
        k = len(self._tool_map)
        obs = np.zeros(8 + k)
        x, y = self._pos
        obs[0] = x / (GRID_SIZE - 1)
        obs[1] = y / (GRID_SIZE - 1)
        obs[2] = self._dir / 3.0
        for i, d in enumerate((RIGHT, DOWN, LEFT, UP)):
            dx, dy = _DELTAS[d]
            cell = self._cell(x + dx, y + dy)
            walkable = cell == _EMPTY or (x + dx, y + dy) == GOAL
            obs[3 + i] = 1.0 if walkable else 0.0
        fx, fy = x + _DELTAS[self._dir][0], y + _DELTAS[self._dir][1]
        front = self._cell(fx, fy)
        if front >= 0:
            obs[7 + front] = 1.0
        elif (fx, fy) == GOAL:
            obs[7 + k] = 1.0
        return obs

    def _distance(self) -> int:
        return abs(self._pos[0] - GOAL[0]) + abs(self._pos[1] - GOAL[1])

    # --- dynamics ---------------------------------------------------------

    def _step(self, action_id: int):
        dist_before = self._distance()
        reward = 0.0
        reached = False
        if action_id < 4:
            self._dir = action_id
            dx, dy = _DELTAS[action_id]
            nx, ny = self._pos[0] + dx, self._pos[1] + dy
            target = self._cell(nx, ny)
            if target == _EMPTY or (nx, ny) == GOAL:
                self._pos = (nx, ny)
                reached = self._pos == GOAL
        else:
            tool = action_id - 4
            mine_type, outcome = self._tool_map[tool]
            fx = self._pos[0] + _DELTAS[self._dir][0]
            fy = self._pos[1] + _DELTAS[self._dir][1]
            if self._cell(fx, fy) == mine_type:
                reward += R_TOOL
                if outcome == BREAK:
                    self._grid[fx, fy] = _EMPTY
                    reward += R_BONUS
                else:
                    self._grid[fx, fy] = outcome
        reward += R_STEP * (dist_before - self._distance())
        if reached:
            reward += R_GOAL * (1.0 - LAMBDA_GOAL * self._t / HORIZON)
        return self._observe(), reward, reached, {"reached": reached}
