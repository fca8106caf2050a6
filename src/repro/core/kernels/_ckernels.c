/* Compiled hot kernels of the TOQM search (the ``compiled`` backend).
 *
 * The operations that dominate node cost once the surrounding machinery
 * is amortized (see DESIGN.md §Kernel backends):
 *
 *   full_scan()   -- the full (non-windowed) owner-run scan of
 *                    heuristic_cost(), operating on a packed problem
 *                    (flat int64 arrays) plus a per-ptr packed row
 *                    buffer.  The SWAP-split LUT is replaced by direct
 *                    closed-form evaluation -- identical values by
 *                    construction, no table needed at C speed.
 *   window_scan() -- the practical mapper's truncated scan
 *                    (heuristic._windowed_cost) over the per-(window,
 *                    ptr) rows of problem.window_rows().  It shares the
 *                    in-flight seeding (scan_begin) and the SWAP-split
 *                    step (pair_finish) with full_scan(); windowed()
 *                    runs it on one node for direct cross-checks.
 *   score_batch() -- KernelBackend.heuristic_batch's memo loop in one
 *                    call: memo keys (cached on the node as _mkey),
 *                    table hits, in-batch duplicates, row buffers (the
 *                    python builder is called back only for a ptr not
 *                    packed yet) and the scans above.
 *   admit_scan()  -- the whole StateFilter.admit(): the packed entry,
 *                    bucket lookup, equivalence check, dominance both
 *                    ways (closed entries too, with the wait-descendant
 *                    parent walk), in-scan compaction, write-back and
 *                    kills.  Entries are instances of the C ``Entry``
 *                    type, which packs the release profile into int64s:
 *                    equivalence is a memcmp, dominance integer compares
 *                    and a merge walk over the in-flight gates.
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
/* Interned attribute names and small helpers                          */
/* ------------------------------------------------------------------ */

static PyObject *str_time, *str_pos, *str_inv, *str_ptr, *str_started;
static PyObject *str_inflight, *str_parent, *str_actions, *str_prefix_layers;
static PyObject *str_h, *str_f, *str_eff, *str_fkey, *str_mkey;
static PyObject *str_profile_attr, *str_frontier, *str_tid;
static PyObject *str_killed, *str_dropped, *str_last_swaps;
static PyObject *str_prev_startable, *str_mapping_after_swaps;
static PyObject *str_filter_key, *str_ck_packed;
static PyObject *empty_args;

static int
as_i64(PyObject *obj, int64_t *out)
{
    int64_t v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

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

/* ``node.<cached>`` unless it is None, else ``node.<method>()`` (which
 * fills the cache): the SearchNode lazy-cache idiom.  New reference. */
static PyObject *
cached_or_call(PyObject *node, PyObject *cached, PyObject *method)
{
    PyObject *v = PyObject_GetAttr(node, cached);
    if (v == NULL || v != Py_None)
        return v;
    Py_DECREF(v);
    return PyObject_CallMethodNoArgs(node, method);
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

/* The signature both scans share: (packed problem, rows buffer, node
 * time, inflight, positions after in-flight SWAPs, inv, swap_aware).
 * Returns 0 with ``*out`` set, or -1 with the exception set. */
typedef int (*scan_fn)(const PackedProblem *, PyObject *, int64_t,
                       PyObject *, PyObject *, PyObject *, int, int64_t *);

/* heuristic_cost() with window=None: the owner-run scan over the
 * per-ptr rows of problem.pending_rows(). */
static int
full_scan(const PackedProblem *pp, PyObject *rows_obj, int64_t time,
          PyObject *inflight, PyObject *pos_after, PyObject *inv,
          int swap_aware, int64_t *out)
{
    int64_t L = pp->num_logical;
    ScanState st;
    if (scan_begin(&st, pp, time, inflight, pos_after, inv) < 0) {
        scan_end(&st);
        return -1;
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
        return -1;
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
    *out = h;
    return 0;
}

/* heuristic._windowed_cost(): the scan over problem.window_rows(window,
 * ptr), packed as (l1, l2, latency) int64 triples in program order with
 * l2 == -1 for single-qubit gates.  Singles are scanned row by row here
 * (the window has no owner-run folding); no trailing-singles pass, since
 * the window already dropped everything past it. */
static int
window_scan(const PackedProblem *pp, PyObject *rows_obj, int64_t time,
            PyObject *inflight, PyObject *pos_after, PyObject *inv,
            int swap_aware, int64_t *out)
{
    ScanState st;
    if (scan_begin(&st, pp, time, inflight, pos_after, inv) < 0) {
        scan_end(&st);
        return -1;
    }
    const int64_t *rows = (const int64_t *)PyBytes_AS_STRING(rows_obj);
    Py_ssize_t total_i64 =
        PyBytes_GET_SIZE(rows_obj) / (Py_ssize_t)sizeof(int64_t);
    if (total_i64 % 3 != 0) {
        PyErr_SetString(PyExc_ValueError, "malformed window rows buffer");
        scan_end(&st);
        return -1;
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
    *out = h;
    return 0;
}

/* windowed(packed, rows, time, inflight, pos_after, inv, swap_aware)
 * -> h: one windowed scan, for direct cross-checks. */
static PyObject *
windowed(PyObject *self, PyObject *args)
{
    PyObject *capsule, *rows_obj, *inflight, *pos_after, *inv;
    long long time;
    int swap_aware;
    if (!PyArg_ParseTuple(
            args, "OO!LO!O!O!p",
            &capsule,
            &PyBytes_Type, &rows_obj,
            &time,
            &PyTuple_Type, &inflight,
            &PyTuple_Type, &pos_after,
            &PyTuple_Type, &inv,
            &swap_aware))
        return NULL;
    const PackedProblem *pp =
        PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp == NULL)
        return NULL;
    int64_t h;
    if (window_scan(pp, rows_obj, time, inflight, pos_after, inv, swap_aware,
                    &h) < 0)
        return NULL;
    return PyLong_FromLongLong(h);
}

/* ------------------------------------------------------------------ */
/* Memoised batch scoring                                              */
/* ------------------------------------------------------------------ */

/* heuristic.memo_key(node): the cached ``_mkey``, else ``(ptr, pos after
 * in-flight SWAPs[, in-flight items with finish made relative to
 * node.time])``, cached back on the node.  New reference. */
static PyObject *
node_memo_key(PyObject *node)
{
    PyObject *key = PyObject_GetAttr(node, str_mkey);
    if (key == NULL || key != Py_None)
        return key;
    Py_DECREF(key);
    key = NULL;
    PyObject *ptr = NULL, *inflight = NULL, *rel = NULL, *time_o = NULL;
    PyObject *eff = cached_or_call(node, str_eff, str_mapping_after_swaps);
    if (eff == NULL)
        return NULL;
    ptr = PyObject_GetAttr(node, str_ptr);
    inflight = PyObject_GetAttr(node, str_inflight);
    if (ptr == NULL || inflight == NULL)
        goto done;
    if (!PyTuple_Check(eff) || PyTuple_GET_SIZE(eff) != 2
        || !PyTuple_Check(inflight)) {
        PyErr_SetString(PyExc_TypeError, "memo key: malformed node fields");
        goto done;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(inflight);
    if (n == 0) {
        key = PyTuple_Pack(2, ptr, PyTuple_GET_ITEM(eff, 0));
    } else {
        int64_t time;
        time_o = PyObject_GetAttr(node, str_time);
        if (time_o == NULL || as_i64(time_o, &time) < 0)
            goto done;
        rel = PyTuple_New(n);
        if (rel == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *item = PyTuple_GET_ITEM(inflight, i);
            int64_t finish;
            if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 4) {
                PyErr_SetString(PyExc_TypeError,
                                "memo key: malformed in-flight item");
                goto done;
            }
            if (as_i64(PyTuple_GET_ITEM(item, 0), &finish) < 0)
                goto done;
            PyObject *remaining = PyLong_FromLongLong(finish - time);
            if (remaining == NULL)
                goto done;
            PyObject *t = PyTuple_Pack(4, remaining, PyTuple_GET_ITEM(item, 1),
                                       PyTuple_GET_ITEM(item, 2),
                                       PyTuple_GET_ITEM(item, 3));
            Py_DECREF(remaining);
            if (t == NULL)
                goto done;
            PyTuple_SET_ITEM(rel, i, t);
        }
        key = PyTuple_Pack(3, ptr, PyTuple_GET_ITEM(eff, 0), rel);
    }
    if (key != NULL && PyObject_SetAttr(node, str_mkey, key) < 0)
        Py_CLEAR(key);
done:
    Py_DECREF(eff);
    Py_XDECREF(ptr);
    Py_XDECREF(inflight);
    Py_XDECREF(rel);
    Py_XDECREF(time_o);
    return key;
}

/* The packed rows for ``ptr``: ``cache[ptr]`` (``cache[(window, ptr)]``
 * for a windowed scan), else the Python builder ``fetch(problem, ptr)``
 * (``fetch(problem, window, ptr)``), which fills the cache and counts
 * its overflow.  New reference. */
static PyObject *
node_rows(PyObject *cache, PyObject *fetch, PyObject *problem,
          PyObject *window, PyObject *ptr)
{
    PyObject *ckey = ptr;
    if (window != Py_None) {
        ckey = PyTuple_Pack(2, window, ptr);
        if (ckey == NULL)
            return NULL;
    } else {
        Py_INCREF(ckey);
    }
    PyObject *rows = PyDict_GetItemWithError(cache, ckey);
    Py_DECREF(ckey);
    if (rows != NULL) {
        Py_INCREF(rows);
    } else if (!PyErr_Occurred()) {
        rows = window == Py_None
            ? PyObject_CallFunctionObjArgs(fetch, problem, ptr, NULL)
            : PyObject_CallFunctionObjArgs(fetch, problem, window, ptr, NULL);
    }
    if (rows != NULL && !PyBytes_Check(rows)) {
        PyErr_SetString(PyExc_TypeError, "rows buffer must be bytes");
        Py_CLEAR(rows);
    }
    return rows;
}

/* Score one memo-miss node: fetch its rows, run the scan, set node.h.
 * Returns the new h object, or NULL with the exception set. */
static PyObject *
score_node(const PackedProblem *pp, PyObject *node, PyObject *cache,
           PyObject *fetch, PyObject *problem, PyObject *window,
           int swap_aware)
{
    scan_fn scan = window == Py_None ? full_scan : window_scan;
    PyObject *time_o = NULL, *ptr = NULL, *inflight = NULL, *pos = NULL;
    PyObject *inv = NULL, *eff = NULL, *rows = NULL, *h_obj = NULL;
    int64_t time, h;
    time_o = PyObject_GetAttr(node, str_time);
    ptr = PyObject_GetAttr(node, str_ptr);
    inflight = PyObject_GetAttr(node, str_inflight);
    pos = PyObject_GetAttr(node, str_pos);
    inv = PyObject_GetAttr(node, str_inv);
    if (time_o == NULL || ptr == NULL || inflight == NULL || pos == NULL
        || inv == NULL || as_i64(time_o, &time) < 0)
        goto done;
    if (!PyTuple_Check(inflight) || !PyTuple_Check(pos)
        || !PyTuple_Check(inv)) {
        PyErr_SetString(PyExc_TypeError, "score: malformed node fields");
        goto done;
    }
    PyObject *pos_after = pos;
    if (PyTuple_GET_SIZE(inflight)) {
        eff = cached_or_call(node, str_eff, str_mapping_after_swaps);
        if (eff == NULL)
            goto done;
        if (!PyTuple_Check(eff) || PyTuple_GET_SIZE(eff) != 2
            || !PyTuple_Check(PyTuple_GET_ITEM(eff, 0))) {
            PyErr_SetString(PyExc_TypeError, "score: malformed _eff");
            goto done;
        }
        pos_after = PyTuple_GET_ITEM(eff, 0);
    }
    rows = node_rows(cache, fetch, problem, window, ptr);
    if (rows == NULL
        || scan(pp, rows, time, inflight, pos_after, inv, swap_aware, &h) < 0)
        goto done;
    h_obj = PyLong_FromLongLong(h);
    if (h_obj != NULL && PyObject_SetAttr(node, str_h, h_obj) < 0)
        Py_CLEAR(h_obj);
done:
    Py_XDECREF(time_o);
    Py_XDECREF(ptr);
    Py_XDECREF(inflight);
    Py_XDECREF(pos);
    Py_XDECREF(inv);
    Py_XDECREF(eff);
    Py_XDECREF(rows);
    return h_obj;
}

/* KernelBackend.heuristic_batch's memo loop and scans in one call:
 * (packed, problem, nodes, memo_table or None, rows cache, fetch,
 * window or None, swap_aware) -> list of the nodes that were scanned.
 * A node whose memo key is in the table takes the stored h (a hit); the
 * first node with a fresh key is scanned and stored, so later nodes of
 * the same batch with that key are hits, as in sequential evaluation.
 * Without a table every node is scanned.  The caller adds
 * ``len(misses)`` / ``len(nodes) - len(misses)`` to the memo counters
 * and feeds the misses to count_evaluations(). */
static PyObject *
score_batch(PyObject *self, PyObject *args)
{
    PyObject *capsule, *problem, *seq, *table, *cache, *fetch, *window;
    int swap_aware;
    if (!PyArg_ParseTuple(args, "OOOOO!OOp", &capsule, &problem, &seq,
                          &table, &PyDict_Type, &cache, &fetch, &window,
                          &swap_aware))
        return NULL;
    const PackedProblem *pp =
        PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp == NULL)
        return NULL;
    if (table != Py_None && !PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "memo table must be a dict or None");
        return NULL;
    }
    PyObject *nodes = PySequence_Fast(seq, "nodes must be a sequence");
    if (nodes == NULL)
        return NULL;
    PyObject *misses = PyList_New(0);
    if (misses == NULL) {
        Py_DECREF(nodes);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(nodes); i++) {
        PyObject *node = PySequence_Fast_GET_ITEM(nodes, i);
        Py_INCREF(node);
        PyObject *key = NULL, *h_obj = NULL;
        int rc = -1;
        if (table != Py_None) {
            key = node_memo_key(node);
            if (key == NULL)
                goto next;
            PyObject *cached = PyDict_GetItemWithError(table, key);
            if (cached != NULL) {
                rc = PyObject_SetAttr(node, str_h, cached);
                goto next;
            }
            if (PyErr_Occurred())
                goto next;
        }
        h_obj = score_node(pp, node, cache, fetch, problem, window,
                           swap_aware);
        if (h_obj == NULL
            || (key != NULL && PyDict_SetItem(table, key, h_obj) < 0))
            goto next;
        rc = PyList_Append(misses, node);
    next:
        Py_DECREF(node);
        Py_XDECREF(key);
        Py_XDECREF(h_obj);
        if (rc < 0) {
            Py_CLEAR(misses);
            break;
        }
    }
    Py_DECREF(nodes);
    return misses;
}

/* ------------------------------------------------------------------ */
/* State-filter entries + admit scan                                   */
/* ------------------------------------------------------------------ */

/* A filter entry with the node's release profile packed inline:
 * ``data`` holds the per-physical-qubit release times (n_qubits int64s),
 * then the in-flight gate indices in ascending order (n_gates), then
 * their finish cycles (n_gates).  Equivalence is one memcmp over it and
 * dominance is integer compares plus a merge walk over the gate ids.
 * ``last_swaps`` / ``prev_startable`` are the node's own frozensets
 * (never mutated after construction); ``killed`` / ``dropped`` are read
 * from the node on every scan because the searches flip them. */
typedef struct {
    PyObject_VAR_HEAD
    int64_t time;
    Py_ssize_t n_qubits;
    Py_ssize_t n_gates;
    PyObject *node;
    PyObject *last_swaps;
    PyObject *prev_startable;
    int64_t data[1];
} EntryObject;

static PyTypeObject Entry_Type;

static void
Entry_dealloc(EntryObject *self)
{
    Py_XDECREF(self->node);
    Py_XDECREF(self->last_swaps);
    Py_XDECREF(self->prev_startable);
    PyObject_Free(self);
}

/* filters.pure_profile(problem, node) packed into a new entry. */
static EntryObject *
entry_build(const PackedProblem *pp, PyObject *node)
{
    int64_t P = pp->num_physical;
    EntryObject *entry = NULL;
    PyObject *time_o = PyObject_GetAttr(node, str_time);
    PyObject *inflight = PyObject_GetAttr(node, str_inflight);
    PyObject *pos = PyObject_GetAttr(node, str_pos);
    int64_t time;
    if (time_o == NULL || inflight == NULL || pos == NULL
        || as_i64(time_o, &time) < 0)
        goto fail;
    if (!PyTuple_Check(inflight) || !PyTuple_Check(pos)
        || PyTuple_GET_SIZE(pos) != pp->num_logical) {
        PyErr_SetString(PyExc_TypeError, "filter entry: malformed node");
        goto fail;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(inflight);
    Py_ssize_t n_gates = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(inflight, i);
        int64_t kind;
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 4) {
            PyErr_SetString(PyExc_TypeError,
                            "filter entry: malformed in-flight item");
            goto fail;
        }
        if (as_i64(PyTuple_GET_ITEM(item, 1), &kind) < 0)
            goto fail;
        n_gates += kind != 1;
    }
    entry = PyObject_NewVar(EntryObject, &Entry_Type, P + 2 * n_gates);
    if (entry == NULL)
        goto fail;
    entry->node = NULL;
    entry->last_swaps = NULL;
    entry->prev_startable = NULL;
    entry->time = time;
    entry->n_qubits = P;
    entry->n_gates = n_gates;
    Py_INCREF(node);
    entry->node = node;
    entry->last_swaps = PyObject_GetAttr(node, str_last_swaps);
    entry->prev_startable = PyObject_GetAttr(node, str_prev_startable);
    if (entry->last_swaps == NULL || entry->prev_startable == NULL)
        goto fail;

    int64_t *qfree = entry->data;
    int64_t *gates = qfree + P;
    int64_t *finish = gates + n_gates;
    for (int64_t p = 0; p < P; p++)
        qfree[p] = time;
    Py_ssize_t k = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(inflight, i);
        int64_t f, kind, a, b;
        if (as_i64(PyTuple_GET_ITEM(item, 0), &f) < 0
            || as_i64(PyTuple_GET_ITEM(item, 1), &kind) < 0
            || as_i64(PyTuple_GET_ITEM(item, 2), &a) < 0
            || as_i64(PyTuple_GET_ITEM(item, 3), &b) < 0)
            goto fail;
        int64_t ops[2] = {a, b};
        int n_ops = 2;
        if (kind != 1) { /* K_GATE: a is the gate index */
            if (a < 0 || a >= pp->num_gates)
                goto range;
            /* Insertion into the ascending gate list. */
            Py_ssize_t j = k++;
            while (j > 0 && gates[j - 1] > a) {
                gates[j] = gates[j - 1];
                finish[j] = finish[j - 1];
                j--;
            }
            gates[j] = a;
            finish[j] = f;
            int64_t l2 = pp->gate_l2[a];
            n_ops = l2 >= 0 ? 2 : 1;
            if (as_i64(PyTuple_GET_ITEM(pos, pp->gate_l1[a]), &ops[0]) < 0
                || (l2 >= 0 && as_i64(PyTuple_GET_ITEM(pos, l2), &ops[1]) < 0))
                goto fail;
        }
        for (int o = 0; o < n_ops; o++) {
            int64_t p = ops[o];
            if (p < 0 || p >= P)
                goto range;
            if (f > qfree[p])
                qfree[p] = f;
        }
    }
    Py_DECREF(time_o);
    Py_DECREF(inflight);
    Py_DECREF(pos);
    return entry;

range:
    PyErr_SetString(PyExc_ValueError, "filter entry: qubit out of range");
fail:
    Py_XDECREF(entry);
    Py_XDECREF(time_o);
    Py_XDECREF(inflight);
    Py_XDECREF(pos);
    return NULL;
}

static PyObject *
Entry_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *capsule, *node;
    if (!PyArg_ParseTuple(args, "OO", &capsule, &node))
        return NULL;
    const PackedProblem *pp =
        PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp == NULL)
        return NULL;
    return (PyObject *)entry_build(pp, node);
}

static PyObject *
Entry_qfree(EntryObject *self, void *closure)
{
    return tuple_from_i64(self->data, self->n_qubits);
}

static PyObject *
Entry_gate_finish(EntryObject *self, void *closure)
{
    const int64_t *gates = self->data + self->n_qubits;
    PyObject *d = PyDict_New();
    for (Py_ssize_t k = 0; d != NULL && k < self->n_gates; k++) {
        PyObject *g = PyLong_FromLongLong(gates[k]);
        PyObject *f = PyLong_FromLongLong(gates[self->n_gates + k]);
        if (g == NULL || f == NULL || PyDict_SetItem(d, g, f) < 0)
            Py_CLEAR(d);
        Py_XDECREF(g);
        Py_XDECREF(f);
    }
    return d;
}

static PyMemberDef Entry_members[] = {
    {"time", T_LONGLONG, offsetof(EntryObject, time), READONLY, NULL},
    {"node", T_OBJECT_EX, offsetof(EntryObject, node), READONLY, NULL},
    {NULL},
};

static PyGetSetDef Entry_getset[] = {
    {"qfree", (getter)Entry_qfree, NULL,
     "Per-physical-qubit release times (tuple).", NULL},
    {"gate_finish", (getter)Entry_gate_finish, NULL,
     "In-flight gate finish cycles (dict gate -> finish).", NULL},
    {NULL},
};

static PyTypeObject Entry_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.kernels._ckernels.Entry",
    .tp_basicsize = offsetof(EntryObject, data),
    .tp_itemsize = sizeof(int64_t),
    .tp_dealloc = (destructor)Entry_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_members = Entry_members,
    .tp_getset = Entry_getset,
    .tp_new = Entry_new,
};

static inline int
entry_equivalent(const EntryObject *a, const EntryObject *b)
{
    return a->time == b->time && a->n_gates == b->n_gates
        && memcmp(a->data, b->data,
                  sizeof(int64_t) * (size_t)(a->n_qubits + 2 * a->n_gates))
               == 0;
}

/* ``a <= b`` for the restriction frozensets; 1, 0 or -1 on error. */
static inline int
subset(PyObject *a, PyObject *b)
{
    if (a == b || (PyAnySet_Check(a) && PySet_GET_SIZE(a) == 0))
        return 1;
    return PyObject_RichCompareBool(a, b, Py_LE);
}

/* filters.pure_dominates: 1 = better dominates worse, 0 = not, -1 =
 * error.  A gate in flight in only one of the two compares its finish
 * against the other's cycle (the merge walk's unmatched branches). */
static int
entry_dominates(const EntryObject *better, const EntryObject *worse)
{
    if (better->time > worse->time)
        return 0;
    Py_ssize_t P = better->n_qubits;
    for (Py_ssize_t p = 0; p < P; p++) {
        if (better->data[p] > worse->data[p])
            return 0;
    }
    Py_ssize_t nb = better->n_gates, nw = worse->n_gates;
    const int64_t *bg = better->data + P, *bf = bg + nb;
    const int64_t *wg = worse->data + P, *wf = wg + nw;
    Py_ssize_t i = 0, j = 0;
    while (i < nb || j < nw) {
        if (j == nw || (i < nb && bg[i] < wg[j])) {
            if (bf[i] > worse->time)
                return 0;
            i++;
        } else if (i == nb || wg[j] < bg[i]) {
            if (better->time > wf[j])
                return 0;
            j++;
        } else {
            if (bf[i] > wf[j])
                return 0;
            i++;
            j++;
        }
    }
    int rc = subset(better->last_swaps, worse->last_swaps);
    if (rc <= 0)
        return rc;
    return subset(better->prev_startable, worse->prev_startable);
}

/* StateFilter._wait_descendant: 1 when ``node`` descends from
 * ``ancestor`` through pure waits.  Wait-children keep their parent's
 * filter key, so the walk up the parent chain stops at the first
 * ancestor under another key; an ancestor with nothing in flight has
 * no wait-children at all. */
static int
wait_descendant(PyObject *node, PyObject *key, PyObject *ancestor)
{
    PyObject *inflight = PyObject_GetAttr(ancestor, str_inflight);
    if (inflight == NULL)
        return -1;
    int busy = PyObject_IsTrue(inflight);
    Py_DECREF(inflight);
    if (busy <= 0)
        return busy;
    int rc = 0;
    PyObject *parent = PyObject_GetAttr(node, str_parent);
    while (parent != NULL && parent != Py_None) {
        if (parent == ancestor) {
            rc = 1;
            break;
        }
        PyObject *pkey = cached_or_call(parent, str_fkey, str_filter_key);
        if (pkey == NULL) {
            rc = -1;
            break;
        }
        int same = pkey == key ? 1 : PyObject_RichCompareBool(pkey, key, Py_EQ);
        Py_DECREF(pkey);
        if (same <= 0) {
            rc = same;
            break;
        }
        PyObject *next = PyObject_GetAttr(parent, str_parent);
        Py_DECREF(parent);
        parent = next;
    }
    if (parent == NULL)
        return -1;
    Py_DECREF(parent);
    return rc;
}

/* ``table[key] = survivors + bucket[index:]`` when the scan skipped dead
 * entries before ``index`` (the in-scan compaction write-back). */
static int
write_back(PyObject *table, PyObject *key, PyObject *survivors,
           PyObject *bucket, Py_ssize_t index)
{
    if (PyList_GET_SIZE(survivors) >= index)
        return 0;
    PyObject *rest = PyList_GetSlice(bucket, index, PyList_GET_SIZE(bucket));
    if (rest == NULL)
        return -1;
    PyObject *merged = PySequence_Concat(survivors, rest);
    Py_DECREF(rest);
    if (merged == NULL)
        return -1;
    int rc = PyDict_SetItem(table, key, merged);
    Py_DECREF(merged);
    return rc;
}

/* ``problem._ck_packed``, packed by ``packer(problem)`` on first use. */
static PyObject *
problem_capsule(PyObject *problem, PyObject *packer)
{
    PyObject *capsule = PyObject_GetAttr(problem, str_ck_packed);
    if (capsule != NULL || !PyErr_ExceptionMatches(PyExc_AttributeError))
        return capsule;
    PyErr_Clear();
    return PyObject_CallOneArg(packer, problem);
}

/* The results with nothing killed, prebuilt: (code, ()) for codes 0-3. */
static PyObject *admit_results[4];

/* The whole StateFilter.admit() for one node: (packer, problem, table,
 * node, dominance, live_only, closed_dominance) -> (code, killed).
 * Builds the packed entry, looks the node's filter key up in ``table``
 * (a dict of entry lists) and scans the bucket in order: dead entries
 * (killed, or dropped under live_only) are compacted away; an equivalent
 * entry drops the newcomer (code 1); with dominance an open entry that
 * dominates it drops it (code 2), and so does a closed one under
 * closed_dominance unless the newcomer is its wait-descendant (code 3).
 * Every drop writes the compacted prefix back.  An admitted newcomer
 * kills each open survivor it dominates and is appended; ``killed`` is
 * the tuple of killed nodes in bucket order.  Mirrors
 * StateFilter._reference_scan. */
static PyObject *
admit_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "admit_scan takes 7 arguments");
        return NULL;
    }
    PyObject *problem = args[1], *table = args[2], *node = args[3];
    if (!PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "admit_scan: table must be a dict");
        return NULL;
    }
    int dominance = PyObject_IsTrue(args[4]);
    int live_only = PyObject_IsTrue(args[5]);
    int closed = PyObject_IsTrue(args[6]);
    if (dominance < 0 || live_only < 0 || closed < 0)
        return NULL;

    PyObject *result = NULL, *key = NULL, *bucket = NULL;
    PyObject *survivors = NULL, *kept = NULL, *killed = NULL;
    EntryObject *entry = NULL;
    int code = 0;
    PyObject *capsule = problem_capsule(problem, args[0]);
    if (capsule == NULL)
        return NULL;
    const PackedProblem *pp =
        PyCapsule_GetPointer(capsule, "repro.packed_problem");
    if (pp != NULL)
        entry = entry_build(pp, node);
    Py_DECREF(capsule);
    if (entry == NULL)
        return NULL;
    key = cached_or_call(node, str_fkey, str_filter_key);
    if (key == NULL)
        goto done;

    bucket = PyDict_GetItemWithError(table, key);
    if (bucket == NULL) {
        if (PyErr_Occurred())
            goto done;
        kept = PyList_New(1);
        if (kept == NULL)
            goto done;
        Py_INCREF(entry);
        PyList_SET_ITEM(kept, 0, (PyObject *)entry);
        if (PyDict_SetItem(table, key, kept) < 0)
            goto done;
        goto admitted;
    }
    if (!PyList_Check(bucket)) {
        PyErr_SetString(PyExc_TypeError, "admit_scan: bucket must be a list");
        bucket = NULL;
        goto done;
    }
    Py_INCREF(bucket); /* a write-back may replace it in the table */
    survivors = PyList_New(0);
    if (survivors == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(bucket); i++) {
        PyObject *item = PyList_GET_ITEM(bucket, i);
        if (!Py_IS_TYPE(item, &Entry_Type)) {
            PyErr_SetString(PyExc_TypeError,
                            "admit_scan: bucket holds a non-Entry item");
            goto done;
        }
        EntryObject *ex = (EntryObject *)item;
        int dead = attr_true(ex->node, str_killed);
        if (dead < 0)
            goto done;
        if (dead)
            continue;
        int dropped = 0;
        if (live_only || dominance) {
            dropped = attr_true(ex->node, str_dropped);
            if (dropped < 0)
                goto done;
            if (live_only && dropped)
                continue;
        }
        if (entry_equivalent(ex, entry)) {
            code = 1;
        } else if (dominance && (!dropped || closed)) {
            int dom = entry_dominates(ex, entry);
            if (dom > 0 && dropped) {
                int desc = wait_descendant(node, key, ex->node);
                dom = desc < 0 ? -1 : !desc;
            }
            if (dom < 0)
                goto done;
            if (dom)
                code = dropped ? 3 : 2;
        }
        if (code) {
            if (write_back(table, key, survivors, bucket, i) < 0)
                goto done;
            result = admit_results[code];
            Py_INCREF(result);
            goto done;
        }
        if (PyList_Append(survivors, item) < 0)
            goto done;
    }

    kept = PyList_New(0);
    killed = PyList_New(0);
    if (kept == NULL || killed == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < PyList_GET_SIZE(survivors); j++) {
        EntryObject *ex = (EntryObject *)PyList_GET_ITEM(survivors, j);
        int kill = 0;
        if (dominance) {
            int dropped = attr_true(ex->node, str_dropped);
            if (dropped < 0)
                goto done;
            if (!dropped) {
                kill = entry_dominates(entry, ex);
                if (kill < 0)
                    goto done;
            }
        }
        if (kill) {
            if (PyObject_SetAttr(ex->node, str_killed, Py_True) < 0
                || PyList_Append(killed, ex->node) < 0)
                goto done;
        } else if (PyList_Append(kept, (PyObject *)ex) < 0) {
            goto done;
        }
    }
    if (PyList_Append(kept, (PyObject *)entry) < 0
        || PyDict_SetItem(table, key, kept) < 0)
        goto done;
    if (PyList_GET_SIZE(killed)) {
        PyObject *nodes = PyList_AsTuple(killed);
        if (nodes != NULL)
            result = Py_BuildValue("(iN)", 0, nodes);
        goto done;
    }
admitted:
    result = admit_results[0];
    Py_INCREF(result);
done:
    Py_DECREF(entry);
    Py_XDECREF(key);
    Py_XDECREF(bucket);
    Py_XDECREF(survivors);
    Py_XDECREF(kept);
    Py_XDECREF(killed);
    return result;
}

/* ------------------------------------------------------------------ */
/* Node expansion                                                      */
/* ------------------------------------------------------------------ */

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
    {"windowed", windowed, METH_VARARGS,
     "Windowed heuristic_cost over packed window rows."},
    {"score_batch", score_batch, METH_VARARGS,
     "Memoised batch scoring: assigns node.h, returns the scanned nodes."},
    {"admit_scan", (PyCFunction)(void (*)(void))admit_scan, METH_FASTCALL,
     "Whole StateFilter.admit(): (code, killed nodes)."},
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
    struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&str_time, "time"}, {&str_pos, "pos"}, {&str_inv, "inv"},
        {&str_ptr, "ptr"}, {&str_started, "started"},
        {&str_inflight, "inflight"}, {&str_parent, "parent"},
        {&str_actions, "actions"}, {&str_prefix_layers, "prefix_layers"},
        {&str_h, "h"}, {&str_f, "f"}, {&str_eff, "_eff"},
        {&str_fkey, "_fkey"}, {&str_mkey, "_mkey"},
        {&str_profile_attr, "_profile"}, {&str_frontier, "_frontier"},
        {&str_tid, "_tid"}, {&str_killed, "killed"},
        {&str_dropped, "dropped"}, {&str_last_swaps, "last_swaps"},
        {&str_prev_startable, "prev_startable"},
        {&str_mapping_after_swaps, "mapping_after_swaps"},
        {&str_filter_key, "filter_key"}, {&str_ck_packed, "_ck_packed"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].name);
        if (*names[i].slot == NULL)
            return NULL;
    }
    empty_args = PyTuple_New(0);
    if (empty_args == NULL)
        return NULL;
    for (int code = 0; code < 4; code++) {
        admit_results[code] = Py_BuildValue("(i())", code);
        if (admit_results[code] == NULL)
            return NULL;
    }
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
