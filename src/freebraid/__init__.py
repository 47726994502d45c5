"""Free braid words: moves, parities, the one-term parity bracket, deciders."""

from .words import (
    BraidWord,
    JSON,
    ParseError,
    Permutation,
    PreconditionError,
    TEXT,
    classical,
    closure_components,
    is_classical,
    is_cyclic,
    is_virtual,
    letter_index,
    parse_word,
    permutation,
    serialize,
    strand_trace,
    virtual,
)
from .moves import (
    Direction,
    LetterCorrespondence,
    MoveInstance,
    MoveSet,
    Relation,
    applicable_moves,
    apply_move,
    apply_move_word,
    format_history,
    parse_history,
    relation_sides,
    relations_in,
    scramble,
)
from .normalform import (
    Bigon,
    CanonicalCode,
    canonical_code,
    f_equal,
    find_bigons,
    irreducible_form,
    irreducible_form_tracked,
    reduce_bigon,
    strongly_equal,
)
from .parity import (
    AxiomReport,
    ChordDiagram,
    ComponentScheme,
    GaussianScheme,
    Parity,
    ParityAssignment,
    ParityScheme,
    QGaussianScheme,
    StrandPartition,
    check_parity_axioms,
    chord_diagram,
    component_parity,
    gaussian_parity,
    linked,
    parse_scheme,
    q_gaussian_parity,
)
from .bracket import (
    BracketResult,
    ReproductionReport,
    bracket,
    brackets_equal,
    is_odd_irreducible,
    verify_reproduction,
)
from .oracle import EquivalenceBall, OracleVerdict, bfs_ball, oracle_equal
from .render import RenderFormat, render, render_ascii, render_svg
from .scenarios import (
    BETA_PRIME_ADDED,
    BETA_PRIME_TEXT,
    BRUNNIAN_TEXT,
    BetaPrimeReport,
    BrunnianReport,
    beta_prime_word,
    brunnian_word,
    scenario_beta_prime,
    scenario_brunnian,
)

__version__ = "0.1.0"
