/* Compiled hot kernels of the TOQM search (the ``compiled`` backend).
 *
 * The operations that dominate node cost once the surrounding machinery
 * is amortized (see DESIGN.md §Kernel backends):
 *
 *   heuristic()   -- the full (non-windowed) owner-run scan of
 *                    heuristic_cost(), operating on a packed problem
 *                    (flat int64 arrays) plus a per-ptr packed row
 *                    buffer.  The SWAP-split LUT is replaced by direct
 *                    closed-form evaluation -- identical values by
 *                    construction, no table needed at C speed.
 *   windowed()    -- the practical mapper's truncated scan
 *                    (heuristic._windowed_cost) over the per-(window,
 *                    ptr) rows of problem.window_rows().  It shares the
 *                    in-flight seeding (scan_begin) and the SWAP-split
 *                    step (pair_finish) with heuristic().
 *   profile()     -- the state filter's per-physical-qubit release
 *                    profile (qfree tuple + in-flight gate finish dict).
 *   admit_scan()  -- the whole bucket scan of StateFilter.admit():
 *                    equivalence check, dominance both ways, in-scan
 *                    compaction.  Entries are instances of the C
 *                    ``Entry`` type below so field access inside the
 *                    scan is a struct load, not a dict/slot lookup.
 *   expand()      -- expander.expand under any ExpansionConfig: the
 *                    optimal modes (plain subset enumeration, optional
 *                    active-SWAP restriction) and the practical
 *                    mapper's greedy mode (forced gate base, frontier
 *                    SWAP pool, protected frontier, SWAP cap), with the
 *                    redundancy rule and its fallback.
 *
 * Semantics contract: every function must be bit-identical to the pure
 * python code it shadows (tests/test_kernels.py enforces this through
 * whole-search counter comparisons and direct cross-checks against
 * _heuristic_cost_reference).  The one trap is integer division: python
 * ``//`` floors while C ``/`` truncates, and the split-crossing
 * numerator can be negative -- hence floordiv() below.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define STACK_QUBITS 128

/* ------------------------------------------------------------------ */
/* Packed problem                                                      */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t num_logical;
    int64_t num_physical;
    int64_t swap_len;
    int64_t has_singles;
    int64_t num_gates;
    int64_t num_edges;
    int64_t *dist_flat;     /* P*P */
    int64_t *gate_l1;       /* num_gates */
    int64_t *gate_l2;       /* num_gates; -1 for single-qubit gates */
    int64_t *seq_len;       /* L */
    int64_t *sp_off;        /* L; offset of chain l's prefix row */
    int64_t *sp_flat;       /* concatenated single_prefix rows */
    int64_t *gate_lat;      /* num_gates */
    int64_t *gate_p1;       /* num_gates; chain position on l1 */
    int64_t *gate_p2;       /* num_gates; chain position on l2, -1 absent */
    int64_t *seq_off;       /* L; offset of chain l in seq_flat */
    int64_t *seq_flat;      /* concatenated per-qubit gate chains */
    int64_t *edge_p;        /* num_edges */
    int64_t *edge_q;        /* num_edges */
} PackedProblem;

static void
packed_free(PyObject *capsule)
{
    PackedProblem *pp = PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp != NULL) {
        free(pp->dist_flat);
        free(pp->gate_l1);
        free(pp->gate_l2);
        free(pp->seq_len);
        free(pp->sp_off);
        free(pp->sp_flat);
        free(pp->gate_lat);
        free(pp->gate_p1);
        free(pp->gate_p2);
        free(pp->seq_off);
        free(pp->seq_flat);
        free(pp->edge_p);
        free(pp->edge_q);
        free(pp);
    }
}

static int
fill_i64(PyObject *seq, int64_t *out, Py_ssize_t expect)
{
    Py_ssize_t n = PyTuple_GET_SIZE(seq);
    if (n != expect) {
        PyErr_SetString(PyExc_ValueError, "packed array length mismatch");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t v = PyLong_AsLongLong(PyTuple_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        out[i] = v;
    }
    return 0;
}

static void
packed_dispose(PackedProblem *pp)
{
    free(pp->dist_flat);
    free(pp->gate_l1);
    free(pp->gate_l2);
    free(pp->seq_len);
    free(pp->sp_off);
    free(pp->sp_flat);
    free(pp->gate_lat);
    free(pp->gate_p1);
    free(pp->gate_p2);
    free(pp->seq_off);
    free(pp->seq_flat);
    free(pp->edge_p);
    free(pp->edge_q);
    free(pp);
}

static PyObject *
pack_problem(PyObject *self, PyObject *args)
{
    long long num_logical, num_physical, swap_len, has_singles;
    PyObject *dist_flat, *gate_l1, *gate_l2, *seq_len, *single_prefix;
    PyObject *gate_lat, *gate_p1, *gate_p2, *seq_flat, *edge_p, *edge_q;
    if (!PyArg_ParseTuple(
            args, "LLLLO!O!O!O!O!O!O!O!O!O!O!",
            &num_logical, &num_physical, &swap_len, &has_singles,
            &PyTuple_Type, &dist_flat,
            &PyTuple_Type, &gate_l1,
            &PyTuple_Type, &gate_l2,
            &PyTuple_Type, &seq_len,
            &PyTuple_Type, &single_prefix,
            &PyTuple_Type, &gate_lat,
            &PyTuple_Type, &gate_p1,
            &PyTuple_Type, &gate_p2,
            &PyTuple_Type, &seq_flat,
            &PyTuple_Type, &edge_p,
            &PyTuple_Type, &edge_q))
        return NULL;

    PackedProblem *pp = calloc(1, sizeof(PackedProblem));
    if (pp == NULL)
        return PyErr_NoMemory();
    pp->num_logical = num_logical;
    pp->num_physical = num_physical;
    pp->swap_len = swap_len;
    pp->has_singles = has_singles;
    pp->num_gates = PyTuple_GET_SIZE(gate_l1);
    pp->num_edges = PyTuple_GET_SIZE(edge_p);

    Py_ssize_t ng = pp->num_gates ? pp->num_gates : 1;
    Py_ssize_t ne = pp->num_edges ? pp->num_edges : 1;
    Py_ssize_t nsf = PyTuple_GET_SIZE(seq_flat);
    pp->dist_flat = malloc(sizeof(int64_t) * (size_t)(num_physical * num_physical));
    pp->gate_l1 = malloc(sizeof(int64_t) * (size_t)ng);
    pp->gate_l2 = malloc(sizeof(int64_t) * (size_t)ng);
    pp->gate_lat = malloc(sizeof(int64_t) * (size_t)ng);
    pp->gate_p1 = malloc(sizeof(int64_t) * (size_t)ng);
    pp->gate_p2 = malloc(sizeof(int64_t) * (size_t)ng);
    pp->seq_len = malloc(sizeof(int64_t) * (size_t)num_logical);
    pp->sp_off = malloc(sizeof(int64_t) * (size_t)num_logical);
    pp->seq_off = malloc(sizeof(int64_t) * (size_t)num_logical);
    pp->seq_flat = malloc(sizeof(int64_t) * (size_t)(nsf ? nsf : 1));
    pp->edge_p = malloc(sizeof(int64_t) * (size_t)ne);
    pp->edge_q = malloc(sizeof(int64_t) * (size_t)ne);
    if (pp->dist_flat == NULL || pp->gate_l1 == NULL || pp->gate_l2 == NULL
        || pp->gate_lat == NULL || pp->gate_p1 == NULL || pp->gate_p2 == NULL
        || pp->seq_len == NULL || pp->sp_off == NULL || pp->seq_off == NULL
        || pp->seq_flat == NULL || pp->edge_p == NULL || pp->edge_q == NULL)
        goto nomem;

    if (fill_i64(dist_flat, pp->dist_flat, num_physical * num_physical) < 0
        || fill_i64(gate_l1, pp->gate_l1, pp->num_gates) < 0
        || fill_i64(gate_l2, pp->gate_l2, pp->num_gates) < 0
        || fill_i64(gate_lat, pp->gate_lat, pp->num_gates) < 0
        || fill_i64(gate_p1, pp->gate_p1, pp->num_gates) < 0
        || fill_i64(gate_p2, pp->gate_p2, pp->num_gates) < 0
        || fill_i64(seq_len, pp->seq_len, num_logical) < 0
        || fill_i64(seq_flat, pp->seq_flat, nsf) < 0
        || fill_i64(edge_p, pp->edge_p, pp->num_edges) < 0
        || fill_i64(edge_q, pp->edge_q, pp->num_edges) < 0)
        goto fail;

    int64_t chain_total = 0;
    for (long long l = 0; l < num_logical; l++) {
        pp->seq_off[l] = chain_total;
        chain_total += pp->seq_len[l];
    }
    if (chain_total != nsf) {
        PyErr_SetString(PyExc_ValueError, "seq_flat length mismatch");
        goto fail;
    }

    if (PyTuple_GET_SIZE(single_prefix) != num_logical) {
        PyErr_SetString(PyExc_ValueError, "single_prefix length mismatch");
        goto fail;
    }
    int64_t total = 0;
    for (long long l = 0; l < num_logical; l++) {
        pp->sp_off[l] = total;
        total += pp->seq_len[l] + 1;
    }
    pp->sp_flat = malloc(sizeof(int64_t) * (size_t)(total ? total : 1));
    if (pp->sp_flat == NULL)
        goto nomem;
    for (long long l = 0; l < num_logical; l++) {
        PyObject *row = PyTuple_GET_ITEM(single_prefix, l);
        if (!PyTuple_Check(row)) {
            PyErr_SetString(PyExc_TypeError, "single_prefix rows must be tuples");
            goto fail;
        }
        if (fill_i64(row, pp->sp_flat + pp->sp_off[l], pp->seq_len[l] + 1) < 0)
            goto fail;
    }

    PyObject *capsule = PyCapsule_New(pp, "repro.packed_problem", packed_free);
    if (capsule == NULL)
        goto fail;
    return capsule;

nomem:
    PyErr_NoMemory();
fail:
    packed_dispose(pp);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Heuristic                                                           */
/* ------------------------------------------------------------------ */

static inline int64_t
floordiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

static inline int64_t
split_delay(int64_t d, int64_t s1, int64_t s2, int64_t L)
{
    int64_t k = d - 1;
    if (L <= 0)
        return 0;
    if (floordiv(s1, L) + floordiv(s2, L) >= k)
        return 0;
    int64_t crossing = floordiv(k * L + s1 - s2, 2 * L);
    int64_t cands[6];
    cands[0] = 0;
    cands[1] = k;
    cands[2] = crossing;
    cands[3] = crossing + 1;
    cands[4] = floordiv(s1, L);
    cands[5] = k - floordiv(s2, L);
    int64_t best = -1;
    for (int i = 0; i < 6; i++) {
        int64_t r = cands[i];
        if (r < 0)
            r = 0;
        else if (r > k)
            r = k;
        int64_t d1 = r * L - s1;
        if (d1 < 0)
            d1 = 0;
        int64_t d2 = (k - r) * L - s2;
        if (d2 < 0)
            d2 = 0;
        int64_t worse = d1 >= d2 ? d1 : d2;
        if (best < 0 || worse < best)
            best = worse;
    }
    return best;
}

/* Per-evaluation state shared by the full and the windowed scan: the
 * head/load recurrences seeded from the in-flight operations, and the
 * positions after in-flight SWAPs.  One buffer holds every array: on
 * the stack up to STACK_QUBITS logical and physical qubits, on the heap
 * above. */
typedef struct {
    int64_t stack_buf[STACK_QUBITS * 5];
    int64_t *buf;
    int64_t *head;      /* L: finish lower bound of the chain's latest element */
    int64_t *load;      /* L: total remaining predecessor cycles (T) */
    int64_t *chain_i;   /* L: singles-fold chain indices (full scan only) */
    int64_t *pos;       /* L: positions after in-flight SWAPs */
    int64_t *inv_after; /* P: in-flight SWAP replay scratch */
    int64_t h;          /* max remaining in-flight time */
} ScanState;

static void
scan_end(ScanState *st)
{
    if (st->buf != st->stack_buf)
        free(st->buf);
}

/* Seed ``st`` from a node: in-flight SWAPs and gates start their
 * operands' chains at the remaining time, and ``pos_after`` (the
 * caller's mapping_after_swaps() positions) is unpacked.  On failure
 * sets the exception and returns -1; scan_end() is due either way. */
static inline int
scan_begin(ScanState *st, const PackedProblem *pp, int64_t time,
           PyObject *inflight, PyObject *pos_after, PyObject *inv)
{
    int64_t L = pp->num_logical;
    int64_t P = pp->num_physical;
    st->buf = st->stack_buf;
    if (L > STACK_QUBITS || P > STACK_QUBITS) {
        st->buf = malloc(sizeof(int64_t) * (size_t)(L * 4 + P));
        if (st->buf == NULL) {
            st->buf = st->stack_buf;
            PyErr_NoMemory();
            return -1;
        }
    }
    st->head = st->buf;
    st->load = st->buf + L;
    st->chain_i = st->buf + 2 * L;
    st->pos = st->buf + 3 * L;
    st->inv_after = st->buf + 4 * L;
    st->h = 0;
    memset(st->head, 0, sizeof(int64_t) * (size_t)(2 * L));
    if (PyTuple_GET_SIZE(pos_after) != L || PyTuple_GET_SIZE(inv) != P) {
        PyErr_SetString(PyExc_ValueError, "pos/inv length mismatch");
        return -1;
    }

    int64_t *head = st->head;
    int64_t *load = st->load;
    int64_t *inv_after = st->inv_after;
    Py_ssize_t n_inflight = PyTuple_GET_SIZE(inflight);
    if (n_inflight) {
        for (int64_t p = 0; p < P; p++) {
            int64_t v = PyLong_AsLongLong(PyTuple_GET_ITEM(inv, p));
            if (v == -1 && PyErr_Occurred())
                return -1;
            inv_after[p] = v;
        }
        for (Py_ssize_t i = 0; i < n_inflight; i++) {
            PyObject *item = PyTuple_GET_ITEM(inflight, i);
            int64_t finish = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 0));
            int64_t kind = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 1));
            int64_t a = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 2));
            int64_t b = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 3));
            if (PyErr_Occurred())
                return -1;
            int64_t remaining = finish - time;
            if (remaining > st->h)
                st->h = remaining;
            if (kind == 1) { /* K_SWAP */
                int64_t l1 = inv_after[a];
                int64_t l2 = inv_after[b];
                inv_after[a] = l2;
                inv_after[b] = l1;
                if (l1 >= 0) {
                    head[l1] = remaining;
                    load[l1] = remaining;
                }
                if (l2 >= 0) {
                    head[l2] = remaining;
                    load[l2] = remaining;
                }
            } else { /* K_GATE: a is the gate index */
                int64_t l1 = pp->gate_l1[a];
                int64_t l2 = pp->gate_l2[a];
                head[l1] = remaining;
                load[l1] = remaining;
                if (l2 >= 0) {
                    head[l2] = remaining;
                    load[l2] = remaining;
                }
            }
        }
    }

    /* Positions after in-flight SWAPs (precomputed by the caller: the
     * node caches mapping_after_swaps() for the filter key anyway). */
    for (int64_t l = 0; l < L; l++) {
        int64_t v = PyLong_AsLongLong(PyTuple_GET_ITEM(pos_after, l));
        if (v == -1 && PyErr_Occurred())
            return -1;
        st->pos[l] = v;
    }
    return 0;
}

/* Finish bound of one two-qubit row: no earlier than both operands'
 * heads, plus the SWAP-split delay when both operands are placed at
 * distance > 1 (unplaced operands and swap_aware=0 see distance 1). */
static inline int64_t
pair_finish(int64_t *head, int64_t *load, const int64_t *pos,
            const int64_t *dist, int64_t P, int64_t swap_len, int swap_aware,
            int64_t l1, int64_t l2, int64_t length)
{
    int64_t h1 = head[l1];
    int64_t h2 = head[l2];
    int64_t u = h1 >= h2 ? h1 : h2;
    if (swap_aware) {
        int64_t p1 = pos[l1];
        int64_t p2 = pos[l2];
        if (p1 >= 0 && p2 >= 0) {
            int64_t d = dist[p1 * P + p2];
            if (d > 1)
                u += split_delay(d, u - load[l1], u - load[l2], swap_len);
        }
    }
    int64_t end = u + length;
    head[l1] = end;
    head[l2] = end;
    load[l1] += length;
    load[l2] += length;
    return end;
}

/* Parse the (packed, rows, time, inflight, pos_after, inv, swap_aware)
 * arguments both scans take; returns the packed problem or NULL. */
static const PackedProblem *
scan_args(PyObject *args, PyObject **rows_obj, int64_t *time,
          PyObject **inflight, PyObject **pos_after, PyObject **inv,
          int *swap_aware)
{
    PyObject *capsule;
    long long t;
    if (!PyArg_ParseTuple(
            args, "OO!LO!O!O!p",
            &capsule,
            &PyBytes_Type, rows_obj,
            &t,
            &PyTuple_Type, inflight,
            &PyTuple_Type, pos_after,
            &PyTuple_Type, inv,
            swap_aware))
        return NULL;
    *time = t;
    return PyCapsule_GetPointer(capsule, "repro.packed_problem");
}

/* heuristic_cost() with window=None: the owner-run scan over the
 * per-ptr rows of problem.pending_rows(). */
static PyObject *
heuristic(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *inflight, *pos_after, *inv;
    int64_t time;
    int swap_aware;
    const PackedProblem *pp = scan_args(args, &rows_obj, &time, &inflight,
                                        &pos_after, &inv, &swap_aware);
    if (pp == NULL)
        return NULL;

    int64_t L = pp->num_logical;
    ScanState st;
    if (scan_begin(&st, pp, time, inflight, pos_after, inv) < 0) {
        scan_end(&st);
        return NULL;
    }
    int64_t *head = st.head;
    int64_t *load = st.load;
    int64_t *chain_i = st.chain_i;
    const int64_t *pos = st.pos;
    int64_t h = st.h;

    /* The rows buffer is ``n_rows`` packed gate_row records (5 int64s
     * each) followed by the node's ptr (L int64s) -- the tail seeds the
     * singles-fold chain indices, which are NOT recoverable from the
     * rows alone (chains with no pending two-qubit gate never appear in
     * them).  See compiled.py: rows_bytes = rows || ptr. */
    const int64_t *rows = (const int64_t *)PyBytes_AS_STRING(rows_obj);
    Py_ssize_t total_i64 =
        PyBytes_GET_SIZE(rows_obj) / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t n_rows = (total_i64 - L) / 5;
    if (n_rows < 0 || n_rows * 5 + L != total_i64) {
        PyErr_SetString(PyExc_ValueError, "malformed rows buffer");
        scan_end(&st);
        return NULL;
    }
    const int64_t *dist = pp->dist_flat;
    int64_t P = pp->num_physical;
    int64_t swap_len = pp->swap_len;

    if (pp->has_singles) {
        const int64_t *ptr_tail = rows + n_rows * 5;
        for (int64_t l = 0; l < L; l++)
            chain_i[l] = ptr_tail[l];
        const int64_t *sp = pp->sp_flat;
        const int64_t *sp_off = pp->sp_off;
        for (Py_ssize_t i = 0; i < n_rows; i++) {
            int64_t l1 = rows[i * 5];
            int64_t l2 = rows[i * 5 + 1];
            int64_t length = rows[i * 5 + 2];
            int64_t p1c = rows[i * 5 + 3];
            int64_t p2c = rows[i * 5 + 4];
            int64_t ci = chain_i[l1];
            if (p1c > ci) {
                int64_t run = sp[sp_off[l1] + p1c] - sp[sp_off[l1] + ci];
                if (run) {
                    head[l1] += run;
                    load[l1] += run;
                }
            }
            chain_i[l1] = p1c + 1;
            ci = chain_i[l2];
            if (p2c > ci) {
                int64_t run = sp[sp_off[l2] + p2c] - sp[sp_off[l2] + ci];
                if (run) {
                    head[l2] += run;
                    load[l2] += run;
                }
            }
            chain_i[l2] = p2c + 1;

            int64_t end = pair_finish(head, load, pos, dist, P, swap_len,
                                      swap_aware, l1, l2, length);
            if (end > h)
                h = end;
        }
        for (int64_t l = 0; l < L; l++) {
            int64_t ci = chain_i[l];
            int64_t tail = sp[sp_off[l] + pp->seq_len[l]] - sp[sp_off[l] + ci];
            if (tail) {
                int64_t end = head[l] + tail;
                if (end > h)
                    h = end;
            }
        }
    } else {
        for (Py_ssize_t i = 0; i < n_rows; i++) {
            int64_t end = pair_finish(head, load, pos, dist, P, swap_len,
                                      swap_aware, rows[i * 5],
                                      rows[i * 5 + 1], rows[i * 5 + 2]);
            if (end > h)
                h = end;
        }
    }

    scan_end(&st);
    return PyLong_FromLongLong(h);
}

/* heuristic._windowed_cost(): the scan over problem.window_rows(window,
 * ptr), packed as (l1, l2, latency) int64 triples in program order with
 * l2 == -1 for single-qubit gates.  Singles are scanned row by row here
 * (the window has no owner-run folding); no trailing-singles pass, since
 * the window already dropped everything past it. */
static PyObject *
windowed(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *inflight, *pos_after, *inv;
    int64_t time;
    int swap_aware;
    const PackedProblem *pp = scan_args(args, &rows_obj, &time, &inflight,
                                        &pos_after, &inv, &swap_aware);
    if (pp == NULL)
        return NULL;

    ScanState st;
    if (scan_begin(&st, pp, time, inflight, pos_after, inv) < 0) {
        scan_end(&st);
        return NULL;
    }
    const int64_t *rows = (const int64_t *)PyBytes_AS_STRING(rows_obj);
    Py_ssize_t total_i64 =
        PyBytes_GET_SIZE(rows_obj) / (Py_ssize_t)sizeof(int64_t);
    if (total_i64 % 3 != 0) {
        PyErr_SetString(PyExc_ValueError, "malformed window rows buffer");
        scan_end(&st);
        return NULL;
    }
    int64_t *head = st.head;
    int64_t *load = st.load;
    const int64_t *pos = st.pos;
    const int64_t *dist = pp->dist_flat;
    int64_t P = pp->num_physical;
    int64_t swap_len = pp->swap_len;
    int64_t h = st.h;
    for (Py_ssize_t i = 0; i < total_i64; i += 3) {
        int64_t l1 = rows[i];
        int64_t l2 = rows[i + 1];
        int64_t length = rows[i + 2];
        int64_t end;
        if (l2 < 0) {
            end = head[l1] + length;
            head[l1] = end;
            load[l1] += length;
        } else {
            end = pair_finish(head, load, pos, dist, P, swap_len, swap_aware,
                              l1, l2, length);
        }
        if (end > h)
            h = end;
    }
    scan_end(&st);
    return PyLong_FromLongLong(h);
}

/* ------------------------------------------------------------------ */
/* Filter profile                                                      */
/* ------------------------------------------------------------------ */

static PyObject *
profile(PyObject *self, PyObject *args)
{
    PyObject *capsule, *inflight, *pos;
    long long time;
    if (!PyArg_ParseTuple(args, "OLO!O!", &capsule, &time,
                          &PyTuple_Type, &inflight,
                          &PyTuple_Type, &pos))
        return NULL;
    PackedProblem *pp = PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp == NULL)
        return NULL;

    int64_t P = pp->num_physical;
    int64_t stack_buf[STACK_QUBITS * 2];
    int64_t *qfree = stack_buf;
    if (P > STACK_QUBITS * 2) {
        qfree = malloc(sizeof(int64_t) * (size_t)P);
        if (qfree == NULL)
            return PyErr_NoMemory();
    }
    for (int64_t p = 0; p < P; p++)
        qfree[p] = time;

    PyObject *gate_finish = PyDict_New();
    if (gate_finish == NULL)
        goto fail;

    Py_ssize_t n = PyTuple_GET_SIZE(inflight);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(inflight, i);
        int64_t finish = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 0));
        int64_t kind = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 1));
        int64_t a = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 2));
        int64_t b = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 3));
        if (PyErr_Occurred())
            goto fail;
        if (kind == 1) { /* K_SWAP */
            if (finish > qfree[a])
                qfree[a] = finish;
            if (finish > qfree[b])
                qfree[b] = finish;
        } else {
            PyObject *fv = PyLong_FromLongLong(finish);
            if (fv == NULL)
                goto fail;
            int rc = PyDict_SetItem(gate_finish,
                                    PyTuple_GET_ITEM(item, 2), fv);
            Py_DECREF(fv);
            if (rc < 0)
                goto fail;
            int64_t l1 = pp->gate_l1[a];
            int64_t l2 = pp->gate_l2[a];
            int64_t p1 = PyLong_AsLongLong(PyTuple_GET_ITEM(pos, l1));
            if (p1 == -1 && PyErr_Occurred())
                goto fail;
            if (finish > qfree[p1])
                qfree[p1] = finish;
            if (l2 >= 0) {
                int64_t p2 = PyLong_AsLongLong(PyTuple_GET_ITEM(pos, l2));
                if (p2 == -1 && PyErr_Occurred())
                    goto fail;
                if (finish > qfree[p2])
                    qfree[p2] = finish;
            }
        }
    }

    PyObject *qfree_t = PyTuple_New(P);
    if (qfree_t == NULL)
        goto fail;
    for (int64_t p = 0; p < P; p++) {
        PyObject *v = PyLong_FromLongLong(qfree[p]);
        if (v == NULL) {
            Py_DECREF(qfree_t);
            goto fail;
        }
        PyTuple_SET_ITEM(qfree_t, p, v);
    }
    if (qfree != stack_buf)
        free(qfree);
    PyObject *out = PyTuple_New(2);
    if (out == NULL) {
        Py_DECREF(qfree_t);
        Py_DECREF(gate_finish);
        return NULL;
    }
    PyTuple_SET_ITEM(out, 0, qfree_t);
    PyTuple_SET_ITEM(out, 1, gate_finish);
    return out;

fail:
    if (qfree != stack_buf)
        free(qfree);
    Py_XDECREF(gate_finish);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Entry type + admit scan                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long long time;
    PyObject *qfree;
    PyObject *gate_finish;
    PyObject *node;
} EntryObject;

static PyObject *str_killed;
static PyObject *str_dropped;
static PyObject *str_last_swaps;
static PyObject *str_prev_startable;

static PyObject *
Entry_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    long long time;
    PyObject *qfree, *gate_finish, *node;
    if (!PyArg_ParseTuple(args, "LOOO", &time, &qfree, &gate_finish, &node))
        return NULL;
    EntryObject *self = (EntryObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->time = time;
    Py_INCREF(qfree);
    self->qfree = qfree;
    Py_INCREF(gate_finish);
    self->gate_finish = gate_finish;
    Py_INCREF(node);
    self->node = node;
    return (PyObject *)self;
}

static void
Entry_dealloc(EntryObject *self)
{
    Py_XDECREF(self->qfree);
    Py_XDECREF(self->gate_finish);
    Py_XDECREF(self->node);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef Entry_members[] = {
    {"time", T_LONGLONG, offsetof(EntryObject, time), READONLY, NULL},
    {"qfree", T_OBJECT_EX, offsetof(EntryObject, qfree), READONLY, NULL},
    {"gate_finish", T_OBJECT_EX, offsetof(EntryObject, gate_finish), READONLY,
     NULL},
    {"node", T_OBJECT_EX, offsetof(EntryObject, node), READONLY, NULL},
    {NULL},
};

static PyTypeObject Entry_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.kernels._ckernels.Entry",
    .tp_basicsize = sizeof(EntryObject),
    .tp_dealloc = (destructor)Entry_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_members = Entry_members,
    .tp_new = Entry_new,
};

static int
attr_true(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
}

static int
as_i64(PyObject *obj, int64_t *out)
{
    int64_t v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* 1 = better dominates worse, 0 = not, -1 = error. Mirrors
 * filters._dominates. */
static int
entry_dominates(EntryObject *better, EntryObject *worse)
{
    if (better->time > worse->time)
        return 0;
    Py_ssize_t n = PyTuple_GET_SIZE(better->qfree);
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t rb, rw;
        if (as_i64(PyTuple_GET_ITEM(better->qfree, i), &rb) < 0
            || as_i64(PyTuple_GET_ITEM(worse->qfree, i), &rw) < 0)
            return -1;
        if (rb > rw)
            return 0;
    }
    PyObject *bf = better->gate_finish;
    PyObject *wf = worse->gate_finish;
    if (PyDict_GET_SIZE(bf) || PyDict_GET_SIZE(wf)) {
        Py_ssize_t pos = 0;
        PyObject *gate, *val;
        while (PyDict_Next(bf, &pos, &gate, &val)) {
            PyObject *fw = PyDict_GetItemWithError(wf, gate);
            if (fw == NULL && PyErr_Occurred())
                return -1;
            int64_t fb, limit;
            if (as_i64(val, &fb) < 0)
                return -1;
            if (fw == NULL) {
                limit = worse->time;
            } else if (as_i64(fw, &limit) < 0) {
                return -1;
            }
            if (fb > limit)
                return 0;
        }
        pos = 0;
        while (PyDict_Next(wf, &pos, &gate, &val)) {
            PyObject *fb = PyDict_GetItemWithError(bf, gate);
            if (fb == NULL && PyErr_Occurred())
                return -1;
            if (fb == NULL) {
                int64_t fwv;
                if (as_i64(val, &fwv) < 0)
                    return -1;
                if (better->time > fwv)
                    return 0;
            }
        }
    }
    PyObject *b_ls = PyObject_GetAttr(better->node, str_last_swaps);
    if (b_ls == NULL)
        return -1;
    PyObject *w_ls = PyObject_GetAttr(worse->node, str_last_swaps);
    if (w_ls == NULL) {
        Py_DECREF(b_ls);
        return -1;
    }
    int rc = PyObject_RichCompareBool(b_ls, w_ls, Py_LE);
    Py_DECREF(b_ls);
    Py_DECREF(w_ls);
    if (rc <= 0)
        return rc;
    PyObject *b_ps = PyObject_GetAttr(better->node, str_prev_startable);
    if (b_ps == NULL)
        return -1;
    PyObject *w_ps = PyObject_GetAttr(worse->node, str_prev_startable);
    if (w_ps == NULL) {
        Py_DECREF(b_ps);
        return -1;
    }
    rc = PyObject_RichCompareBool(b_ps, w_ps, Py_LE);
    Py_DECREF(b_ps);
    Py_DECREF(w_ps);
    return rc;
}

static PyObject *
dominates(PyObject *self, PyObject *args)
{
    EntryObject *better, *worse;
    if (!PyArg_ParseTuple(args, "O!O!", &Entry_Type, &better,
                          &Entry_Type, &worse))
        return NULL;
    int rc = entry_dominates(better, worse);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

/* Build ``survivors + bucket[index:]`` (the in-scan compaction write-
 * back) or None when no dead entry was skipped before ``index``. */
static PyObject *
compacted_bucket(PyObject *survivors, PyObject *bucket, Py_ssize_t index)
{
    if (PyList_GET_SIZE(survivors) >= index)
        Py_RETURN_NONE;
    PyObject *rest = PyList_GetSlice(bucket, index, PyList_GET_SIZE(bucket));
    if (rest == NULL)
        return NULL;
    PyObject *merged = PySequence_Concat(survivors, rest);
    Py_DECREF(rest);
    return merged;
}

/* The full StateFilter.admit() bucket scan.  Returns
 * ``(code, new_bucket_or_None, killed_count)`` with code 0 = admitted
 * (new_bucket is the replacement bucket), 1 = equivalent drop,
 * 2 = dominated drop (new_bucket is the compaction write-back or
 * None). */
static PyObject *
admit_scan(PyObject *self, PyObject *args)
{
    PyObject *bucket;
    EntryObject *entry;
    int dominance, live_only;
    if (!PyArg_ParseTuple(args, "O!O!pp", &PyList_Type, &bucket,
                          &Entry_Type, &entry, &dominance, &live_only))
        return NULL;

    PyObject *survivors = PyList_New(0);
    if (survivors == NULL)
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(bucket);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(bucket, i);
        if (!PyObject_TypeCheck(item, &Entry_Type)) {
            PyErr_SetString(PyExc_TypeError,
                            "admit_scan bucket holds a non-Entry item");
            goto fail;
        }
        EntryObject *ex = (EntryObject *)item;
        int killed = attr_true(ex->node, str_killed);
        if (killed < 0)
            goto fail;
        if (killed)
            continue;
        int dropped = -2;
        if (live_only) {
            dropped = attr_true(ex->node, str_dropped);
            if (dropped < 0)
                goto fail;
            if (dropped)
                continue;
        }
        if (ex->time == entry->time) {
            int eq = PyObject_RichCompareBool(ex->qfree, entry->qfree, Py_EQ);
            if (eq < 0)
                goto fail;
            if (eq) {
                eq = PyObject_RichCompareBool(ex->gate_finish,
                                              entry->gate_finish, Py_EQ);
                if (eq < 0)
                    goto fail;
                if (eq) {
                    PyObject *nb = compacted_bucket(survivors, bucket, i);
                    Py_DECREF(survivors);
                    if (nb == NULL)
                        return NULL;
                    return Py_BuildValue("(iNl)", 1, nb, 0L);
                }
            }
        }
        if (dominance) {
            if (dropped == -2) {
                dropped = attr_true(ex->node, str_dropped);
                if (dropped < 0)
                    goto fail;
            }
            if (!dropped) {
                int dom = entry_dominates(ex, entry);
                if (dom < 0)
                    goto fail;
                if (dom) {
                    PyObject *nb = compacted_bucket(survivors, bucket, i);
                    Py_DECREF(survivors);
                    if (nb == NULL)
                        return NULL;
                    return Py_BuildValue("(iNl)", 2, nb, 0L);
                }
            }
        }
        if (PyList_Append(survivors, item) < 0)
            goto fail;
    }

    PyObject *kept = PyList_New(0);
    if (kept == NULL)
        goto fail;
    long killed_count = 0;
    Py_ssize_t m = PyList_GET_SIZE(survivors);
    for (Py_ssize_t j = 0; j < m; j++) {
        EntryObject *ex = (EntryObject *)PyList_GET_ITEM(survivors, j);
        int kill = 0;
        if (dominance) {
            int dropped = attr_true(ex->node, str_dropped);
            if (dropped < 0)
                goto fail2;
            if (!dropped) {
                kill = entry_dominates(entry, ex);
                if (kill < 0)
                    goto fail2;
            }
        }
        if (kill) {
            if (PyObject_SetAttr(ex->node, str_killed, Py_True) < 0)
                goto fail2;
            killed_count++;
        } else if (PyList_Append(kept, (PyObject *)ex) < 0) {
            goto fail2;
        }
    }
    if (PyList_Append(kept, (PyObject *)entry) < 0)
        goto fail2;
    Py_DECREF(survivors);
    return Py_BuildValue("(iNl)", 0, kept, killed_count);

fail2:
    Py_DECREF(kept);
fail:
    Py_DECREF(survivors);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Node expansion                                                      */
/* ------------------------------------------------------------------ */

/* Interned attribute names for SearchNode construction. */
static PyObject *str_time, *str_pos, *str_inv, *str_ptr, *str_started;
static PyObject *str_inflight, *str_parent, *str_actions, *str_prefix_layers;
static PyObject *str_h, *str_f, *str_eff, *str_fkey, *str_mkey;
static PyObject *str_profile_attr, *str_frontier, *str_tid;
static PyObject *str_mapping_after_swaps;
static PyObject *empty_args;

static int
set_ll(PyObject *obj, PyObject *name, long long v)
{
    PyObject *x = PyLong_FromLongLong(v);
    if (x == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, x);
    Py_DECREF(x);
    return rc;
}

static PyObject *
tuple_from_i64(const int64_t *values, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLongLong(values[i]);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

static int
tuple_to_i64(PyObject *t, int64_t *out, Py_ssize_t expect)
{
    if (!PyTuple_Check(t) || PyTuple_GET_SIZE(t) != expect) {
        PyErr_SetString(PyExc_ValueError, "expand: tuple length mismatch");
        return -1;
    }
    for (Py_ssize_t i = 0; i < expect; i++) {
        if (as_i64(PyTuple_GET_ITEM(t, i), out + i) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
pair_tuple(int64_t a, int64_t b)
{
    PyObject *oa = PyLong_FromLongLong(a);
    if (oa == NULL)
        return NULL;
    PyObject *ob = PyLong_FromLongLong(b);
    if (ob == NULL) {
        Py_DECREF(oa);
        return NULL;
    }
    PyObject *t = PyTuple_New(2);
    if (t == NULL) {
        Py_DECREF(oa);
        Py_DECREF(ob);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, oa);
    PyTuple_SET_ITEM(t, 1, ob);
    return t;
}

/* frozenset of (a, b) int pairs taken from two parallel arrays. */
static PyObject *
pairs_frozenset(const int64_t *pa, const int64_t *pb, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *t = pair_tuple(pa[i], pb[i]);
        if (t == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, t);
    }
    PyObject *fs = PyFrozenSet_New(list);
    Py_DECREF(list);
    return fs;
}

/* All per-expansion state shared by the subset recursion: the parent's
 * decoded fields, the startable-action table and reusable scratch
 * buffers sized once up front.  Mirrors expander.expand's closure. */
typedef struct {
    const PackedProblem *pp;
    PyTypeObject *cls;
    PyObject *node;
    long long ptime;
    long long pstarted;
    PyObject *ppos, *pinv, *pptr, *pinflight, *plast_swaps, *pprev;
    PyObject *parent_eff;      /* (pos, inv) after in-flight SWAPs */
    int64_t *pos_c, *ptr_c;    /* L */
    int64_t *inv_c;            /* P */
    int64_t *eff_pos_c;        /* L */
    int64_t *eff_inv_c;        /* P */
    Py_ssize_t n_inflight;
    int64_t *infl;             /* 4 per item: finish, kind, a, b */
    Py_ssize_t n_ls;
    int64_t *ls_a, *ls_b;      /* decoded parent last_swaps pairs */
    Py_ssize_t n_act;
    PyObject **act_tup;        /* owned action tuples ("g",i)/("s",p,q) */
    int64_t *act_mask, *act_a, *act_b;
    int8_t *act_swap, *act_fresh;
    PyObject *all_startable;   /* frozenset over act_tup */
    Py_ssize_t *chosen;        /* action indices of the current subset */
    int8_t *chosen_flag;
    PyObject *children;        /* output list */
    int64_t max_swaps;         /* SWAPs per set; -1 = no cap */
    int allow_empty;           /* emit the empty set (time may pass) */
    /* apply scratch (sized n_act / n_inflight+n_act / n_ls+...): */
    int64_t *nptr, *scr_pos, *scr_effpos;   /* L */
    int64_t *scr_inv, *scr_effinv;          /* P */
    int64_t *ni_fin, *ni_kind, *ni_a, *ni_b;
    int64_t *comp_a, *comp_b;
    int64_t *kept_a, *kept_b;
    int64_t *nsw_a, *nsw_b;    /* SWAPs started by the current subset */
} ExpandCtx;

/* apply_action_set for the current ``chosen`` subset; appends the child
 * to ctx->children (or nothing for the impossible empty wait).  Returns
 * 0 on success, -1 on error.  Bit-identical to expander.apply_action_set
 * with ``parent_eff`` given (``prev_startable`` is set-equal to the one
 * the masks-dict path builds). */
static int
apply_chosen(ExpandCtx *ctx, Py_ssize_t n_chosen, int64_t touched)
{
    const PackedProblem *pp = ctx->pp;
    int64_t L = pp->num_logical;
    int64_t P = pp->num_physical;
    long long started = ctx->pstarted;
    Py_ssize_t n_new = 0;
    int ptr_copied = 0;
    Py_ssize_t n_new_swaps = 0;
    int64_t *nsw_a = ctx->nsw_a, *nsw_b = ctx->nsw_b;
    int64_t next_time = 0;
    int have_next = 0;

    for (Py_ssize_t c = 0; c < n_chosen; c++) {
        Py_ssize_t i = ctx->chosen[c];
        int64_t finish;
        if (!ctx->act_swap[i]) {
            int64_t gate = ctx->act_a[i];
            if (!ptr_copied) {
                memcpy(ctx->nptr, ctx->ptr_c, sizeof(int64_t) * (size_t)L);
                ptr_copied = 1;
            }
            ctx->nptr[pp->gate_l1[gate]] += 1;
            if (pp->gate_l2[gate] >= 0)
                ctx->nptr[pp->gate_l2[gate]] += 1;
            started += 1;
            finish = ctx->ptime + pp->gate_lat[gate];
            ctx->ni_fin[n_new] = finish;
            ctx->ni_kind[n_new] = 0;  /* K_GATE */
            ctx->ni_a[n_new] = gate;
            ctx->ni_b[n_new] = 0;
            n_new++;
        } else {
            finish = ctx->ptime + pp->swap_len;
            ctx->ni_fin[n_new] = finish;
            ctx->ni_kind[n_new] = 1;  /* K_SWAP */
            ctx->ni_a[n_new] = ctx->act_a[i];
            ctx->ni_b[n_new] = ctx->act_b[i];
            n_new++;
            nsw_a[n_new_swaps] = ctx->act_a[i];
            nsw_b[n_new_swaps] = ctx->act_b[i];
            n_new_swaps++;
        }
        if (!have_next || finish < next_time) {
            next_time = finish;
            have_next = 1;
        }
    }

    if (n_new == 0 && ctx->n_inflight == 0)
        return 0;  /* time cannot advance: not a child */

    if (ctx->n_inflight
        && (!have_next || ctx->infl[0] < next_time)) {
        next_time = ctx->infl[0];
        have_next = 1;
    }

    Py_ssize_t n_comp = 0;
    Py_ssize_t cut = 0;
    for (Py_ssize_t i = 0; i < ctx->n_inflight; i++) {
        if (ctx->infl[i * 4] > next_time)
            break;
        if (ctx->infl[i * 4 + 1] == 1) {
            ctx->comp_a[n_comp] = ctx->infl[i * 4 + 2];
            ctx->comp_b[n_comp] = ctx->infl[i * 4 + 3];
            n_comp++;
        }
        cut++;
    }

    PyObject *remaining = PyList_New(0);
    if (remaining == NULL)
        return -1;
    for (Py_ssize_t i = cut; i < ctx->n_inflight; i++) {
        if (PyList_Append(remaining,
                          PyTuple_GET_ITEM(ctx->pinflight, i)) < 0)
            goto fail_remaining;
    }
    int need_sort = 0;
    for (Py_ssize_t i = 0; i < n_new; i++) {
        if (ctx->ni_fin[i] > next_time) {
            PyObject *item = PyTuple_New(4);
            if (item == NULL)
                goto fail_remaining;
            PyObject *v;
            if ((v = PyLong_FromLongLong(ctx->ni_fin[i])) == NULL) {
                Py_DECREF(item);
                goto fail_remaining;
            }
            PyTuple_SET_ITEM(item, 0, v);
            if ((v = PyLong_FromLongLong(ctx->ni_kind[i])) == NULL) {
                Py_DECREF(item);
                goto fail_remaining;
            }
            PyTuple_SET_ITEM(item, 1, v);
            if ((v = PyLong_FromLongLong(ctx->ni_a[i])) == NULL) {
                Py_DECREF(item);
                goto fail_remaining;
            }
            PyTuple_SET_ITEM(item, 2, v);
            if ((v = PyLong_FromLongLong(ctx->ni_b[i])) == NULL) {
                Py_DECREF(item);
                goto fail_remaining;
            }
            PyTuple_SET_ITEM(item, 3, v);
            int rc = PyList_Append(remaining, item);
            Py_DECREF(item);
            if (rc < 0)
                goto fail_remaining;
            need_sort = 1;
        } else if (ctx->ni_kind[i] == 1) {
            ctx->comp_a[n_comp] = ctx->ni_a[i];
            ctx->comp_b[n_comp] = ctx->ni_b[i];
            n_comp++;
        }
    }
    if (need_sort && PyList_Sort(remaining) < 0)
        goto fail_remaining;
    PyObject *inflight_t = PyList_AsTuple(remaining);
    Py_DECREF(remaining);
    if (inflight_t == NULL)
        return -1;

    /* From here on, single exit path through ``done``/``fail``. */
    PyObject *ptr_obj = NULL, *pos_obj = NULL, *inv_obj = NULL;
    PyObject *last_swaps = NULL, *prev_startable = NULL;
    PyObject *eff = NULL, *fkey = NULL, *actions_t = NULL, *child = NULL;

    if (ptr_copied) {
        ptr_obj = tuple_from_i64(ctx->nptr, L);
    } else {
        Py_INCREF(ctx->pptr);
        ptr_obj = ctx->pptr;
    }
    if (ptr_obj == NULL)
        goto fail;

    if (n_comp == 0) {
        Py_INCREF(ctx->ppos);
        pos_obj = ctx->ppos;
        Py_INCREF(ctx->pinv);
        inv_obj = ctx->pinv;
    } else {
        memcpy(ctx->scr_pos, ctx->pos_c, sizeof(int64_t) * (size_t)L);
        memcpy(ctx->scr_inv, ctx->inv_c, sizeof(int64_t) * (size_t)P);
        for (Py_ssize_t i = 0; i < n_comp; i++) {
            int64_t a = ctx->comp_a[i], b = ctx->comp_b[i];
            int64_t l1 = ctx->scr_inv[a], l2 = ctx->scr_inv[b];
            ctx->scr_inv[a] = l2;
            ctx->scr_inv[b] = l1;
            if (l1 >= 0)
                ctx->scr_pos[l1] = b;
            if (l2 >= 0)
                ctx->scr_pos[l2] = a;
        }
        pos_obj = tuple_from_i64(ctx->scr_pos, L);
        if (pos_obj == NULL)
            goto fail;
        inv_obj = tuple_from_i64(ctx->scr_inv, P);
    }
    if (pos_obj == NULL || inv_obj == NULL)
        goto fail;

    /* last_swaps: filter the parent's set by the touched mask, then add
     * the SWAPs that completed during this step. */
    Py_ssize_t n_kept = -1;  /* -1 = parent's set survives unchanged */
    if (touched && ctx->n_ls) {
        n_kept = 0;
        for (Py_ssize_t i = 0; i < ctx->n_ls; i++) {
            int64_t pm = ((int64_t)1 << ctx->ls_a[i])
                         | ((int64_t)1 << ctx->ls_b[i]);
            if (!(pm & touched)) {
                ctx->kept_a[n_kept] = ctx->ls_a[i];
                ctx->kept_b[n_kept] = ctx->ls_b[i];
                n_kept++;
            }
        }
    }
    if (n_comp) {
        if (n_kept < 0) {
            PyObject *comp_fs = pairs_frozenset(ctx->comp_a, ctx->comp_b,
                                                n_comp);
            if (comp_fs == NULL)
                goto fail;
            last_swaps = PyNumber_Or(ctx->plast_swaps, comp_fs);
            Py_DECREF(comp_fs);
        } else {
            for (Py_ssize_t i = 0; i < n_comp; i++) {
                ctx->kept_a[n_kept] = ctx->comp_a[i];
                ctx->kept_b[n_kept] = ctx->comp_b[i];
                n_kept++;
            }
            last_swaps = pairs_frozenset(ctx->kept_a, ctx->kept_b, n_kept);
        }
    } else if (n_kept < 0) {
        Py_INCREF(ctx->plast_swaps);
        last_swaps = ctx->plast_swaps;
    } else {
        last_swaps = pairs_frozenset(ctx->kept_a, ctx->kept_b, n_kept);
    }
    if (last_swaps == NULL)
        goto fail;

    if (n_chosen == 0) {
        Py_INCREF(ctx->all_startable);
        prev_startable = ctx->all_startable;
    } else {
        PyObject *carried = PyList_New(0);
        if (carried == NULL)
            goto fail;
        for (Py_ssize_t i = 0; i < ctx->n_act; i++) {
            if (!(ctx->act_mask[i] & touched) && !ctx->chosen_flag[i]) {
                if (PyList_Append(carried, ctx->act_tup[i]) < 0) {
                    Py_DECREF(carried);
                    goto fail;
                }
            }
        }
        prev_startable = PyFrozenSet_New(carried);
        Py_DECREF(carried);
        if (prev_startable == NULL)
            goto fail;
    }

    if (n_new_swaps == 0) {
        Py_INCREF(ctx->parent_eff);
        eff = ctx->parent_eff;
    } else {
        memcpy(ctx->scr_effpos, ctx->eff_pos_c, sizeof(int64_t) * (size_t)L);
        memcpy(ctx->scr_effinv, ctx->eff_inv_c, sizeof(int64_t) * (size_t)P);
        for (Py_ssize_t i = 0; i < n_new_swaps; i++) {
            int64_t a = nsw_a[i], b = nsw_b[i];
            int64_t l1 = ctx->scr_effinv[a], l2 = ctx->scr_effinv[b];
            ctx->scr_effinv[a] = l2;
            ctx->scr_effinv[b] = l1;
            if (l1 >= 0)
                ctx->scr_effpos[l1] = b;
            if (l2 >= 0)
                ctx->scr_effpos[l2] = a;
        }
        PyObject *ep = tuple_from_i64(ctx->scr_effpos, L);
        if (ep == NULL)
            goto fail;
        PyObject *ei = tuple_from_i64(ctx->scr_effinv, P);
        if (ei == NULL) {
            Py_DECREF(ep);
            goto fail;
        }
        eff = PyTuple_New(2);
        if (eff == NULL) {
            Py_DECREF(ep);
            Py_DECREF(ei);
            goto fail;
        }
        PyTuple_SET_ITEM(eff, 0, ep);
        PyTuple_SET_ITEM(eff, 1, ei);
    }
    fkey = PyTuple_New(2);
    if (fkey == NULL)
        goto fail;
    PyObject *eff_inv_obj = PyTuple_GET_ITEM(eff, 1);
    Py_INCREF(eff_inv_obj);
    PyTuple_SET_ITEM(fkey, 0, eff_inv_obj);
    Py_INCREF(ptr_obj);
    PyTuple_SET_ITEM(fkey, 1, ptr_obj);

    actions_t = PyTuple_New(n_chosen);
    if (actions_t == NULL)
        goto fail;
    for (Py_ssize_t c = 0; c < n_chosen; c++) {
        PyObject *a = ctx->act_tup[ctx->chosen[c]];
        Py_INCREF(a);
        PyTuple_SET_ITEM(actions_t, c, a);
    }

    child = ctx->cls->tp_new(ctx->cls, empty_args, NULL);
    if (child == NULL)
        goto fail;
    if (set_ll(child, str_time, next_time) < 0
        || PyObject_SetAttr(child, str_pos, pos_obj) < 0
        || PyObject_SetAttr(child, str_inv, inv_obj) < 0
        || PyObject_SetAttr(child, str_ptr, ptr_obj) < 0
        || set_ll(child, str_started, started) < 0
        || PyObject_SetAttr(child, str_inflight, inflight_t) < 0
        || PyObject_SetAttr(child, str_last_swaps, last_swaps) < 0
        || PyObject_SetAttr(child, str_prev_startable, prev_startable) < 0
        || PyObject_SetAttr(child, str_parent, ctx->node) < 0
        || PyObject_SetAttr(child, str_actions, actions_t) < 0
        || set_ll(child, str_prefix_layers, -1) < 0
        || set_ll(child, str_h, 0) < 0
        || set_ll(child, str_f, 0) < 0
        || PyObject_SetAttr(child, str_killed, Py_False) < 0
        || PyObject_SetAttr(child, str_dropped, Py_False) < 0
        || PyObject_SetAttr(child, str_eff, eff) < 0
        || PyObject_SetAttr(child, str_fkey, fkey) < 0
        || PyObject_SetAttr(child, str_mkey, Py_None) < 0
        || PyObject_SetAttr(child, str_profile_attr, Py_None) < 0
        || PyObject_SetAttr(child, str_frontier, Py_None) < 0
        || set_ll(child, str_tid, -1) < 0)
        goto fail;
    if (PyList_Append(ctx->children, child) < 0)
        goto fail;

    Py_DECREF(child);
    Py_DECREF(actions_t);
    Py_DECREF(fkey);
    Py_DECREF(eff);
    Py_DECREF(prev_startable);
    Py_DECREF(last_swaps);
    Py_DECREF(inv_obj);
    Py_DECREF(pos_obj);
    Py_DECREF(ptr_obj);
    Py_DECREF(inflight_t);
    return 0;

fail_remaining:
    Py_DECREF(remaining);
    return -1;
fail:
    Py_XDECREF(child);
    Py_XDECREF(actions_t);
    Py_XDECREF(fkey);
    Py_XDECREF(eff);
    Py_XDECREF(prev_startable);
    Py_XDECREF(last_swaps);
    Py_XDECREF(inv_obj);
    Py_XDECREF(pos_obj);
    Py_XDECREF(ptr_obj);
    Py_XDECREF(inflight_t);
    return -1;
}

/* Mirror of expander._recurse_masked / _recurse_swaps fused with the
 * per-candidate apply: emit the current subset, then extend it with every
 * later compatible action.  A non-empty subset is emitted when it holds
 * at least one fresh action (the redundancy rule); the empty subset when
 * ``allow_empty`` is set.  SWAPs beyond ``max_swaps`` (-1 = no cap) are
 * never added.  The greedy config enters with its gate base already in
 * ``chosen`` and ``start`` past the gates, so only SWAPs vary. */
static int
recurse_subsets(ExpandCtx *ctx, Py_ssize_t start, int64_t mask,
                Py_ssize_t n_chosen, int64_t n_swaps, int64_t fresh)
{
    if ((n_chosen ? fresh > 0 : ctx->allow_empty)
        && apply_chosen(ctx, n_chosen, mask) < 0)
        return -1;
    for (Py_ssize_t i = start; i < ctx->n_act; i++) {
        if (mask & ctx->act_mask[i])
            continue;
        int is_swap = ctx->act_swap[i];
        if (is_swap && ctx->max_swaps >= 0 && n_swaps >= ctx->max_swaps)
            continue;
        ctx->chosen[n_chosen] = i;
        ctx->chosen_flag[i] = 1;
        int rc = recurse_subsets(ctx, i + 1, mask | ctx->act_mask[i],
                                 n_chosen + 1, n_swaps + is_swap,
                                 fresh + ctx->act_fresh[i]);
        ctx->chosen_flag[i] = 0;
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* One enumeration pass.  Greedy configs force every startable gate that
 * fits (the first ``n_gates`` actions) into a base every set shares. */
static int
enumerate_sets(ExpandCtx *ctx, int greedy, Py_ssize_t n_gates)
{
    if (!greedy)
        return recurse_subsets(ctx, 0, 0, 0, 0, 0);
    int64_t base_mask = 0;
    int64_t fresh = 0;
    Py_ssize_t n_base = 0;
    for (Py_ssize_t i = 0; i < n_gates; i++) {
        if (base_mask & ctx->act_mask[i])
            continue;
        ctx->chosen[n_base++] = i;
        ctx->chosen_flag[i] = 1;
        base_mask |= ctx->act_mask[i];
        fresh += ctx->act_fresh[i];
    }
    int rc = recurse_subsets(ctx, n_gates, base_mask, n_base, 0, fresh);
    for (Py_ssize_t c = 0; c < n_base; c++)
        ctx->chosen_flag[ctx->chosen[c]] = 0;
    return rc;
}

/* Whole expander.expand: startable-action enumeration under the
 * ExpansionConfig fields (passed as plain arguments, -1 standing for
 * None), masked subset recursion fused with the redundancy rule, the
 * every-set-was-redundant fallback, and child construction.  ``rows`` is
 * the packed pending-row buffer, read only when ``active_only`` is set.
 * Returns ``(children, restricted)``; the caller (compiled.py) adds
 * ``restricted`` to the shared counters. */
static PyObject *
expand_node(PyObject *self, PyObject *args)
{
    PyObject *capsule, *cls_obj, *node, *rows_obj;
    int active_only, greedy, frontier_only, protect;
    Py_ssize_t max_swaps, max_candidates;
    if (!PyArg_ParseTuple(args, "OOOO!ppppnn", &capsule, &cls_obj, &node,
                          &PyBytes_Type, &rows_obj, &active_only, &greedy,
                          &frontier_only, &protect, &max_swaps,
                          &max_candidates))
        return NULL;
    PackedProblem *pp = PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp == NULL)
        return NULL;
    if (!PyType_Check(cls_obj)) {
        PyErr_SetString(PyExc_TypeError, "expand: cls must be a type");
        return NULL;
    }

    int64_t L = pp->num_logical;
    int64_t P = pp->num_physical;
    int64_t E = pp->num_edges;
    if (P >= 63) {
        PyErr_SetString(PyExc_ValueError,
                        "expand: >62 physical qubits exceeds int64 masks");
        return NULL;
    }

    ExpandCtx ctx;
    memset(&ctx, 0, sizeof(ctx));
    ctx.pp = pp;
    ctx.cls = (PyTypeObject *)cls_obj;
    ctx.node = node;
    ctx.max_swaps = max_swaps;

    PyObject *result = NULL;
    PyObject *t_started = NULL, *t_time = NULL;
    int64_t *block = NULL;
    int8_t flags_stack[512];
    int8_t *flags = flags_stack;
    Py_ssize_t chosen_stack[256];
    Py_ssize_t *chosen_heap = NULL;
    long long restricted = 0;

    /* --- parent attributes ----------------------------------------- */
    t_time = PyObject_GetAttr(node, str_time);
    if (t_time == NULL)
        goto fail;
    ctx.ptime = PyLong_AsLongLong(t_time);
    if (ctx.ptime == -1 && PyErr_Occurred())
        goto fail;
    t_started = PyObject_GetAttr(node, str_started);
    if (t_started == NULL)
        goto fail;
    ctx.pstarted = PyLong_AsLongLong(t_started);
    if (ctx.pstarted == -1 && PyErr_Occurred())
        goto fail;
    ctx.ppos = PyObject_GetAttr(node, str_pos);
    ctx.pinv = PyObject_GetAttr(node, str_inv);
    ctx.pptr = PyObject_GetAttr(node, str_ptr);
    ctx.pinflight = PyObject_GetAttr(node, str_inflight);
    ctx.plast_swaps = PyObject_GetAttr(node, str_last_swaps);
    ctx.pprev = PyObject_GetAttr(node, str_prev_startable);
    if (ctx.ppos == NULL || ctx.pinv == NULL || ctx.pptr == NULL
        || ctx.pinflight == NULL || ctx.plast_swaps == NULL
        || ctx.pprev == NULL)
        goto fail;
    ctx.parent_eff = PyObject_CallMethodNoArgs(node, str_mapping_after_swaps);
    if (ctx.parent_eff == NULL)
        goto fail;
    if (!PyTuple_Check(ctx.pinflight) || !PyTuple_Check(ctx.parent_eff)
        || PyTuple_GET_SIZE(ctx.parent_eff) != 2
        || !PyAnySet_Check(ctx.plast_swaps)
        || !PyAnySet_Check(ctx.pprev)) {
        PyErr_SetString(PyExc_TypeError, "expand: malformed node fields");
        goto fail;
    }
    ctx.n_inflight = PyTuple_GET_SIZE(ctx.pinflight);
    ctx.n_ls = PySet_GET_SIZE(ctx.plast_swaps);

    /* --- one arena for every scratch array -------------------------- */
    Py_ssize_t max_act = L + E;           /* frontier gates + edges */
    Py_ssize_t max_items = ctx.n_inflight + max_act;
    Py_ssize_t need =
        4 * L                              /* pos, ptr, eff_pos, nptr */
        + 2 * L                            /* scr_pos, scr_effpos */
        + 3 * P                            /* inv, eff_inv, scr_inv/effinv */
        + P                                /* (second scr) */
        + 4 * ctx.n_inflight               /* infl rows */
        + 2 * ctx.n_ls                     /* ls pairs */
        + 3 * max_act                      /* act_mask/a/b */
        + 4 * max_act                      /* ni rows */
        + 2 * max_items                    /* completed pairs */
        + 2 * (ctx.n_ls + max_items)       /* kept pairs */
        + 2 * max_act                      /* new-SWAP pairs */
        + L                                /* frontier gather */
        + 2 * L                            /* blocked frontier pairs */
        + max_act;                         /* candidate gains */
    block = malloc(sizeof(int64_t) * (size_t)(need > 0 ? need : 1));
    if (block == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    int64_t *cursor = block;
    ctx.pos_c = cursor; cursor += L;
    ctx.ptr_c = cursor; cursor += L;
    ctx.eff_pos_c = cursor; cursor += L;
    ctx.nptr = cursor; cursor += L;
    ctx.scr_pos = cursor; cursor += L;
    ctx.scr_effpos = cursor; cursor += L;
    ctx.inv_c = cursor; cursor += P;
    ctx.eff_inv_c = cursor; cursor += P;
    ctx.scr_inv = cursor; cursor += P;
    ctx.scr_effinv = cursor; cursor += P;
    ctx.infl = cursor; cursor += 4 * ctx.n_inflight;
    ctx.ls_a = cursor; cursor += ctx.n_ls;
    ctx.ls_b = cursor; cursor += ctx.n_ls;
    ctx.act_mask = cursor; cursor += max_act;
    ctx.act_a = cursor; cursor += max_act;
    ctx.act_b = cursor; cursor += max_act;
    ctx.ni_fin = cursor; cursor += max_act;
    ctx.ni_kind = cursor; cursor += max_act;
    ctx.ni_a = cursor; cursor += max_act;
    ctx.ni_b = cursor; cursor += max_act;
    ctx.comp_a = cursor; cursor += max_items;
    ctx.comp_b = cursor; cursor += max_items;
    ctx.kept_a = cursor; cursor += ctx.n_ls + max_items;
    ctx.kept_b = cursor; cursor += ctx.n_ls + max_items;
    ctx.nsw_a = cursor; cursor += max_act;
    ctx.nsw_b = cursor; cursor += max_act;
    int64_t *ready = cursor; cursor += L;
    int64_t *blocked_p1 = cursor; cursor += L;
    int64_t *blocked_p2 = cursor; cursor += L;
    int64_t *gain = cursor;

    if (3 * max_act > 512) {
        flags = malloc((size_t)(3 * max_act));
        if (flags == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    ctx.act_swap = flags;
    ctx.act_fresh = flags + max_act;
    ctx.chosen_flag = flags + 2 * max_act;
    memset(ctx.chosen_flag, 0, (size_t)max_act);
    if (max_act > 256) {
        chosen_heap = malloc(sizeof(Py_ssize_t) * (size_t)max_act);
        if (chosen_heap == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        ctx.chosen = chosen_heap;
    } else {
        ctx.chosen = chosen_stack;
    }

    if (tuple_to_i64(ctx.ppos, ctx.pos_c, L) < 0
        || tuple_to_i64(ctx.pptr, ctx.ptr_c, L) < 0
        || tuple_to_i64(ctx.pinv, ctx.inv_c, P) < 0
        || tuple_to_i64(PyTuple_GET_ITEM(ctx.parent_eff, 0),
                        ctx.eff_pos_c, L) < 0
        || tuple_to_i64(PyTuple_GET_ITEM(ctx.parent_eff, 1),
                        ctx.eff_inv_c, P) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < ctx.n_inflight; i++) {
        PyObject *item = PyTuple_GET_ITEM(ctx.pinflight, i);
        if (tuple_to_i64(item, ctx.infl + 4 * i, 4) < 0)
            goto fail;
    }
    {
        PyObject *it = PyObject_GetIter(ctx.plast_swaps);
        if (it == NULL)
            goto fail;
        Py_ssize_t i = 0;
        PyObject *pair;
        while ((pair = PyIter_Next(it)) != NULL) {
            int64_t row[2];
            if (tuple_to_i64(pair, row, 2) < 0) {
                Py_DECREF(pair);
                Py_DECREF(it);
                goto fail;
            }
            Py_DECREF(pair);
            ctx.ls_a[i] = row[0];
            ctx.ls_b[i] = row[1];
            i++;
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            goto fail;
    }

    /* --- busy mask & frontier (startable_actions) ------------------- */
    int64_t busy = 0;
    for (Py_ssize_t i = 0; i < ctx.n_inflight; i++) {
        int64_t kind = ctx.infl[i * 4 + 1];
        int64_t a = ctx.infl[i * 4 + 2];
        int64_t b = ctx.infl[i * 4 + 3];
        if (kind == 1) {
            busy |= ((int64_t)1 << a) | ((int64_t)1 << b);
        } else {
            int64_t l1 = pp->gate_l1[a];
            int64_t l2 = pp->gate_l2[a];
            busy |= (int64_t)1 << ctx.pos_c[l1];
            if (l2 >= 0)
                busy |= (int64_t)1 << ctx.pos_c[l2];
        }
    }
    Py_ssize_t n_ready = 0;
    for (int64_t l = 0; l < L; l++) {
        int64_t index = ctx.ptr_c[l];
        if (index >= pp->seq_len[l])
            continue;
        int64_t gate = pp->seq_flat[pp->seq_off[l] + index];
        int64_t l2 = pp->gate_l2[gate];
        if (l2 < 0) {
            ready[n_ready++] = gate;
        } else {
            int64_t l1 = pp->gate_l1[gate];
            if (ctx.ptr_c[l1] == pp->gate_p1[gate]
                && ctx.ptr_c[l2] == pp->gate_p2[gate] && l == l1)
                ready[n_ready++] = gate;
        }
    }
    /* insertion sort: mirror frontier_gates' ready.sort() */
    for (Py_ssize_t i = 1; i < n_ready; i++) {
        int64_t v = ready[i];
        Py_ssize_t j = i;
        while (j > 0 && ready[j - 1] > v) {
            ready[j] = ready[j - 1];
            j--;
        }
        ready[j] = v;
    }

    /* Frontier CNOTs split into blocked pairs (not adjacent: SWAP
     * targets) and satisfied ones (adjacent: protected from SWAPs, busy
     * or not). */
    ctx.n_act = 0;
    int64_t blocked = 0, protected_mask = 0;
    Py_ssize_t n_blocked = 0;
    for (Py_ssize_t i = 0; i < n_ready; i++) {
        int64_t gate = ready[i];
        int64_t l1 = pp->gate_l1[gate];
        int64_t l2 = pp->gate_l2[gate];
        int64_t mask;
        if (l2 >= 0) {
            int64_t p1 = ctx.pos_c[l1], p2 = ctx.pos_c[l2];
            if (p1 < 0 || p2 < 0)
                continue;
            mask = ((int64_t)1 << p1) | ((int64_t)1 << p2);
            int64_t d = pp->dist_flat[p1 * P + p2];
            if (d != 1) {
                blocked |= mask;
                if (d > 1) {
                    blocked_p1[n_blocked] = p1;
                    blocked_p2[n_blocked] = p2;
                    n_blocked++;
                }
                continue;
            }
            protected_mask |= mask;
            if (busy & mask)
                continue;
        } else {
            int64_t p1 = ctx.pos_c[l1];
            if (p1 < 0)
                continue;
            mask = (int64_t)1 << p1;
            if (busy & mask)
                continue;
        }
        ctx.act_swap[ctx.n_act] = 0;
        ctx.act_a[ctx.n_act] = gate;
        ctx.act_b[ctx.n_act] = 0;
        ctx.act_mask[ctx.n_act] = mask;
        ctx.n_act++;
    }
    Py_ssize_t n_gates = ctx.n_act;
    /* --- active-SWAP mask (problem.active_swap_mask) ----------------- */
    int64_t active_mask = -1;
    if (active_only) {
        const int64_t *rows = (const int64_t *)PyBytes_AS_STRING(rows_obj);
        Py_ssize_t total_i64 =
            PyBytes_GET_SIZE(rows_obj) / (Py_ssize_t)sizeof(int64_t);
        Py_ssize_t n_rows = (total_i64 - L) / 5;
        if (n_rows < 0 || n_rows * 5 + L != total_i64) {
            PyErr_SetString(PyExc_ValueError, "expand: malformed rows buffer");
            goto fail;
        }
        active_mask = 0;
        /* seen-pair dedup: comp_a/comp_b are free at this point */
        Py_ssize_t n_seen = 0;
        for (Py_ssize_t i = 0; i < n_rows; i++) {
            int64_t l1 = rows[i * 5];
            int64_t l2 = rows[i * 5 + 1];
            int64_t p1 = ctx.pos_c[l1], p2 = ctx.pos_c[l2];
            if (p1 < 0 || p2 < 0) {
                active_mask = -1;  /* unplaced operand: no restriction */
                break;
            }
            int64_t lo = p1 < p2 ? p1 : p2;
            int64_t hi = p1 < p2 ? p2 : p1;
            int dup = 0;
            for (Py_ssize_t s = 0; s < n_seen; s++) {
                if (ctx.comp_a[s] == lo && ctx.comp_b[s] == hi) {
                    dup = 1;
                    break;
                }
            }
            if (dup)
                continue;
            ctx.comp_a[n_seen] = lo;
            ctx.comp_b[n_seen] = hi;
            n_seen++;
            active_mask |= ((int64_t)1 << p1) | ((int64_t)1 << p2);
            int64_t d = pp->dist_flat[p1 * P + p2];
            if (d > 1) {
                const int64_t *row1 = pp->dist_flat + p1 * P;
                const int64_t *row2 = pp->dist_flat + p2 * P;
                for (int64_t r = 0; r < P; r++) {
                    if (row1[r] + row2[r] == d)
                        active_mask |= (int64_t)1 << r;
                }
            }
        }
    }

    /* --- startable SWAPs -------------------------------------------- */
    for (int64_t e = 0; e < E; e++) {
        int64_t p = pp->edge_p[e], q = pp->edge_q[e];
        int64_t mask = ((int64_t)1 << p) | ((int64_t)1 << q);
        if (busy & mask)
            continue;
        if (ctx.inv_c[p] < 0 && ctx.inv_c[q] < 0)
            continue;
        int in_last = 0;
        for (Py_ssize_t i = 0; i < ctx.n_ls; i++) {
            if (ctx.ls_a[i] == p && ctx.ls_b[i] == q) {
                in_last = 1;
                break;
            }
        }
        if (in_last)
            continue;
        if (!(active_mask & mask)) {
            restricted++;
            continue;
        }
        if (frontier_only && !(blocked & mask))
            continue;
        if (protect && (protected_mask & mask))
            continue;
        ctx.act_swap[ctx.n_act] = 1;
        ctx.act_a[ctx.n_act] = p;
        ctx.act_b[ctx.n_act] = q;
        ctx.act_mask[ctx.n_act] = mask;
        ctx.n_act++;
    }

    /* --- candidate pool (max_candidate_swaps) ------------------------ */
    Py_ssize_t n_swaps = ctx.n_act - n_gates;
    if (max_candidates >= 0 && n_swaps > max_candidates) {
        /* gain: summed distance drop over the blocked frontier pairs */
        for (Py_ssize_t i = n_gates; i < ctx.n_act; i++) {
            int64_t p = ctx.act_a[i], q = ctx.act_b[i];
            int64_t g = 0;
            for (Py_ssize_t k = 0; k < n_blocked; k++) {
                int64_t p1 = blocked_p1[k], p2 = blocked_p2[k];
                int64_t a1 = p1 == p ? q : (p1 == q ? p : p1);
                int64_t a2 = p2 == p ? q : (p2 == q ? p : p2);
                g += pp->dist_flat[p1 * P + p2] - pp->dist_flat[a1 * P + a2];
            }
            gain[i] = g;
        }
        /* stable insertion sort by (-gain, p, q): sorted(key=(-gain, a)) */
        for (Py_ssize_t i = n_gates + 1; i < ctx.n_act; i++) {
            int64_t g = gain[i], p = ctx.act_a[i], q = ctx.act_b[i];
            int64_t m = ctx.act_mask[i];
            Py_ssize_t j = i;
            while (j > n_gates
                   && (gain[j - 1] < g
                       || (gain[j - 1] == g
                           && (ctx.act_a[j - 1] > p
                               || (ctx.act_a[j - 1] == p
                                   && ctx.act_b[j - 1] > q))))) {
                gain[j] = gain[j - 1];
                ctx.act_a[j] = ctx.act_a[j - 1];
                ctx.act_b[j] = ctx.act_b[j - 1];
                ctx.act_mask[j] = ctx.act_mask[j - 1];
                j--;
            }
            gain[j] = g;
            ctx.act_a[j] = p;
            ctx.act_b[j] = q;
            ctx.act_mask[j] = m;
        }
        ctx.n_act = n_gates + max_candidates;
    }

    /* --- python action tuples, freshness, all_startable -------------- */
    ctx.act_tup = calloc((size_t)(ctx.n_act ? ctx.n_act : 1),
                         sizeof(PyObject *));
    if (ctx.act_tup == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < ctx.n_act; i++) {
        PyObject *t;
        if (ctx.act_swap[i]) {
            t = Py_BuildValue("(sLL)", "s", (long long)ctx.act_a[i],
                              (long long)ctx.act_b[i]);
        } else {
            t = Py_BuildValue("(sL)", "g", (long long)ctx.act_a[i]);
        }
        if (t == NULL)
            goto fail;
        ctx.act_tup[i] = t;
        int contains = PySet_Contains(ctx.pprev, t);
        if (contains < 0)
            goto fail;
        ctx.act_fresh[i] = contains ? 0 : 1;
    }
    {
        PyObject *all_list = PyList_New(ctx.n_act);
        if (all_list == NULL)
            goto fail;
        for (Py_ssize_t i = 0; i < ctx.n_act; i++) {
            Py_INCREF(ctx.act_tup[i]);
            PyList_SET_ITEM(all_list, i, ctx.act_tup[i]);
        }
        ctx.all_startable = PyFrozenSet_New(all_list);
        Py_DECREF(all_list);
        if (ctx.all_startable == NULL)
            goto fail;
    }

    /* --- enumerate + apply ------------------------------------------ */
    ctx.children = PyList_New(0);
    if (ctx.children == NULL)
        goto fail;
    ctx.allow_empty = ctx.n_inflight > 0;
    if (enumerate_sets(&ctx, greedy, n_gates) < 0)
        goto fail;
    if (PyList_GET_SIZE(ctx.children) == 0 && ctx.n_act > 0) {
        /* Every set was redundant against the parent's startable record.
         * The optimal search's siblings cover those schedules, but a
         * bounded-queue search may have trimmed them: regenerate every
         * non-empty set as if all actions were fresh, so the node is
         * never a dead end. */
        memset(ctx.act_fresh, 1, (size_t)ctx.n_act);
        ctx.allow_empty = 0;
        if (enumerate_sets(&ctx, greedy, n_gates) < 0)
            goto fail;
    }

    result = Py_BuildValue("(OL)", ctx.children, restricted);
    /* fall through to cleanup; result may be NULL on BuildValue failure */

fail:
    Py_XDECREF(ctx.children);
    Py_XDECREF(ctx.all_startable);
    if (ctx.act_tup != NULL) {
        for (Py_ssize_t i = 0; i < ctx.n_act; i++)
            Py_XDECREF(ctx.act_tup[i]);
        free(ctx.act_tup);
    }
    Py_XDECREF(ctx.parent_eff);
    Py_XDECREF(ctx.pprev);
    Py_XDECREF(ctx.plast_swaps);
    Py_XDECREF(ctx.pinflight);
    Py_XDECREF(ctx.pptr);
    Py_XDECREF(ctx.pinv);
    Py_XDECREF(ctx.ppos);
    Py_XDECREF(t_started);
    Py_XDECREF(t_time);
    free(chosen_heap);
    if (flags != flags_stack)
        free(flags);
    free(block);
    return result;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"pack_problem", pack_problem, METH_VARARGS,
     "Pack problem arrays into a capsule for the compiled kernels."},
    {"heuristic", heuristic, METH_VARARGS,
     "Full (non-windowed) heuristic_cost over a packed problem."},
    {"windowed", windowed, METH_VARARGS,
     "Windowed heuristic_cost over packed window rows."},
    {"profile", profile, METH_VARARGS,
     "State-filter release profile: (qfree tuple, gate_finish dict)."},
    {"dominates", dominates, METH_VARARGS,
     "Dominance check between two Entry objects."},
    {"admit_scan", admit_scan, METH_VARARGS,
     "Whole StateFilter.admit() bucket scan."},
    {"expand", expand_node, METH_VARARGS,
     "Node expansion under an ExpansionConfig: (children, restricted)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    "repro.core.kernels._ckernels",
    "Compiled hot kernels for the TOQM search (see kernels/api.py).",
    -1,
    module_methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    if (PyType_Ready(&Entry_Type) < 0)
        return NULL;
    str_killed = PyUnicode_InternFromString("killed");
    str_dropped = PyUnicode_InternFromString("dropped");
    str_last_swaps = PyUnicode_InternFromString("last_swaps");
    str_prev_startable = PyUnicode_InternFromString("prev_startable");
    if (str_killed == NULL || str_dropped == NULL || str_last_swaps == NULL
        || str_prev_startable == NULL)
        return NULL;
    str_time = PyUnicode_InternFromString("time");
    str_pos = PyUnicode_InternFromString("pos");
    str_inv = PyUnicode_InternFromString("inv");
    str_ptr = PyUnicode_InternFromString("ptr");
    str_started = PyUnicode_InternFromString("started");
    str_inflight = PyUnicode_InternFromString("inflight");
    str_parent = PyUnicode_InternFromString("parent");
    str_actions = PyUnicode_InternFromString("actions");
    str_prefix_layers = PyUnicode_InternFromString("prefix_layers");
    str_h = PyUnicode_InternFromString("h");
    str_f = PyUnicode_InternFromString("f");
    str_eff = PyUnicode_InternFromString("_eff");
    str_fkey = PyUnicode_InternFromString("_fkey");
    str_mkey = PyUnicode_InternFromString("_mkey");
    str_profile_attr = PyUnicode_InternFromString("_profile");
    str_frontier = PyUnicode_InternFromString("_frontier");
    str_tid = PyUnicode_InternFromString("_tid");
    str_mapping_after_swaps = PyUnicode_InternFromString(
        "mapping_after_swaps");
    empty_args = PyTuple_New(0);
    if (str_time == NULL || str_pos == NULL || str_inv == NULL
        || str_ptr == NULL || str_started == NULL || str_inflight == NULL
        || str_parent == NULL || str_actions == NULL
        || str_prefix_layers == NULL || str_h == NULL || str_f == NULL
        || str_eff == NULL || str_fkey == NULL || str_mkey == NULL
        || str_profile_attr == NULL || str_frontier == NULL
        || str_tid == NULL || str_mapping_after_swaps == NULL
        || empty_args == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&module_def);
    if (m == NULL)
        return NULL;
    Py_INCREF(&Entry_Type);
    if (PyModule_AddObject(m, "Entry", (PyObject *)&Entry_Type) < 0) {
        Py_DECREF(&Entry_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
