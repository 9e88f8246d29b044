/* Predicated construction kernels of repro (see repro/kernels/__init__.py).
 *
 * One source, macro-instantiated per element type: KERNELS (partitions, range
 * scans, the counting scatter, range routing, the merge; LOWEST and HIGHEST
 * bracket the type's values) for int64 (_i64), uint64 (_u64) and float64
 * (_f64); MINMAX for the two column dtypes; INTEGER_SUMS for the two integer
 * types; KEY_KERNELS (radix histogram, cursor scatter) for the two column
 * dtypes; FOR_KERNELS (the block codec's pack/unpack) per delta width.  The hot loops are branch-free in the data
 * (the paper's predication): a comparison becomes an integer that advances a
 * cursor or selects a slot, not a jump.  Kernels write only into buffers the
 * caller allocated and never allocate, so the Python side's memory budget
 * keeps governing.
 *
 * Compiled by repro/kernels/_build.py with `cc -O3 -march=native -shared
 * -fPIC`, loaded through ctypes.  NaN compares false everywhere, so a NaN
 * is never below a pivot and never inside a range, exactly as in NumPy.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 256 /* offsets buffered per side by the in-place partition */

/* Whether cut c sorts before value v in NumPy's order (NaN after numbers). */
#define BEFORE(c, v) ((int64_t)(((c) < (v)) | (((v) != (v)) & ((c) == (c)))))

#define KERNELS(T, S, LOWEST, HIGHEST)                                         \
                                                                               \
    static int64_t count_below_##S(const T *src, int64_t n, T pivot)           \
    {                                                                          \
        int64_t below = 0;                                                     \
        for (int64_t k = 0; k < n; k++)                                        \
            below += src[k] < pivot;                                           \
        return below;                                                          \
    }                                                                          \
                                                                               \
    /* Two-ended, resumable: values below the pivot go to out[low_fill...]     \
     * upwards, the others form one block ending at out[high_fill], both in    \
     * input order.  Returns how many went low. */                             \
    int64_t partition_chunk_##S(const T *src, int64_t n, T pivot, T *out,      \
                                int64_t low_fill, int64_t high_fill)           \
    {                                                                          \
        int64_t below = count_below_##S(src, n, pivot);                        \
        int64_t lo = low_fill, hi = high_fill - (n - below);                   \
        for (int64_t k = 0; k < n; k++) {                                      \
            T v = src[k];                                                      \
            int64_t c = v < pivot;                                             \
            out[hi + ((lo - hi) & -c)] = v; /* c ? lo : hi, without a jump */  \
            lo += c;                                                           \
            hi += 1 - c;                                                       \
        }                                                                      \
        return below;                                                          \
    }                                                                          \
                                                                               \
    /* In place: the k-th misplaced value of the low side is swapped with the  \
     * k-th misplaced value of the high side.  Returns the boundary. */        \
    int64_t partition_swap_##S(T *a, int64_t n, T pivot)                       \
    {                                                                          \
        int64_t boundary = count_below_##S(a, n, pivot);                       \
        int64_t low_at[BLOCK], high_at[BLOCK];                                 \
        int64_t i = 0, j = boundary, nl = 0, nh = 0, sl = 0, sh = 0;           \
        for (;;) {                                                             \
            while (nl == 0 && i < boundary) {                                  \
                int64_t m = boundary - i < BLOCK ? boundary - i : BLOCK;       \
                sl = 0;                                                        \
                for (int64_t k = 0; k < m; k++) {                              \
                    low_at[nl] = i + k;                                        \
                    nl += !(a[i + k] < pivot);                                 \
                }                                                              \
                i += m;                                                        \
            }                                                                  \
            while (nh == 0 && j < n) {                                         \
                int64_t m = n - j < BLOCK ? n - j : BLOCK;                     \
                sh = 0;                                                        \
                for (int64_t k = 0; k < m; k++) {                              \
                    high_at[nh] = j + k;                                       \
                    nh += a[j + k] < pivot;                                    \
                }                                                              \
                j += m;                                                        \
            }                                                                  \
            if (nl == 0 || nh == 0)                                            \
                break; /* both sides hold equally many: both are done */       \
            int64_t m = nl < nh ? nl : nh;                                     \
            for (int64_t k = 0; k < m; k++) {                                  \
                T stash = a[low_at[sl + k]];                                   \
                a[low_at[sl + k]] = a[high_at[sh + k]];                        \
                a[high_at[sh + k]] = stash;                                    \
            }                                                                  \
            nl -= m, sl += m, nh -= m, sh += m;                                \
        }                                                                      \
        return boundary;                                                       \
    }                                                                          \
                                                                               \
    int64_t count_range_##S(const T *a, int64_t n, T low, T high)              \
    {                                                                          \
        int64_t count = 0;                                                     \
        for (int64_t k = 0; k < n; k++)                                        \
            count += (a[k] >= low) & (a[k] <= high);                           \
        return count;                                                          \
    }                                                                          \
                                                                               \
    /* Matches of [low, high] in input order; `out` holds count + 1 slots      \
     * (the slot after the last match takes the rejected writes). */           \
    int64_t compact_range_##S(const T *a, int64_t n, T low, T high, T *out)    \
    {                                                                          \
        int64_t count = 0;                                                     \
        for (int64_t k = 0; k < n; k++) {                                      \
            T v = a[k];                                                        \
            out[count] = v;                                                    \
            count += (v >= low) & (v <= high);                                 \
        }                                                                      \
        return count;                                                          \
    }                                                                          \
                                                                               \
    /* Stable counting scatter.  counts and ends hold n_buckets slots; out n.  \
     * Returns -1, having written nothing to out, when an id is out of range;  \
     * otherwise bucket b is out[ends[b] - counts[b] ... ends[b]]. */          \
    int64_t scatter_##S(const T *values, const int64_t *ids, int64_t n,        \
                        int64_t n_buckets, int64_t *counts, int64_t *ends,     \
                        T *out)                                                \
    {                                                                          \
        uint64_t bad = 0;                                                      \
        memset(counts, 0, (size_t)n_buckets * sizeof(int64_t));                \
        for (int64_t k = 0; k < n; k++) {                                      \
            uint64_t id = (uint64_t)ids[k];                                    \
            uint64_t ok = id < (uint64_t)n_buckets;                            \
            bad |= !ok;                                                        \
            counts[ok ? id : 0] += 1;                                          \
        }                                                                      \
        if (bad)                                                               \
            return -1;                                                         \
        int64_t at = 0;                                                        \
        for (int64_t b = 0; b < n_buckets; b++) {                              \
            ends[b] = at;                                                      \
            at += counts[b];                                                   \
        }                                                                      \
        for (int64_t k = 0; k < n; k++)                                        \
            out[ends[ids[k]]++] = values[k];                                   \
        return n;                                                              \
    }                                                                          \
                                                                               \
    /* Range routing: how many of the sorted cuts sort before each value       \
     * (np.searchsorted side="left"), compared in T itself with NumPy's order  \
     * (NaN after every number; the NaN terms fold away for integers).  The    \
     * binary search takes the same steps for every value: the probe moves     \
     * the window's base, never the control flow. */                           \
    static int64_t search_cuts_##S(const T *cuts, int64_t n_cuts, T v)         \
    {                                                                          \
        int64_t base = 0, len = n_cuts;                                        \
        while (len > 1) {                                                      \
            int64_t half = len >> 1;                                           \
            base += half & -BEFORE(cuts[base + half - 1], v);                  \
            len -= half;                                                       \
        }                                                                      \
        if (len)                                                               \
            base += BEFORE(cuts[base], v);                                     \
        return base;                                                           \
    }                                                                          \
                                                                               \
    /* On random data every probe of that search is a mispredicted branch,    \
     * so a uniform grid over the cuts' domain (`cells`, n_cells slots of      \
     * scratch filled here; the last takes every value above the last cut)    \
     * proposes the id of the value's cell, and a walk over the neighbouring   \
     * cuts corrects it: for the few values whose cell holds a cut, and for    \
     * rounding in the grid arithmetic, which is in doubles.  The walk reads   \
     * `padded` (n_cuts + 2 slots of scratch: the cuts between LOWEST and      \
     * HIGHEST), so a value outside the cuts takes the same branches as one    \
     * inside.  The grid needs finite cuts (a NaN value is counted after all   \
     * of them); the search serves n_cells == 0 and a span that is empty, not  \
     * finite or NaN. */                                                       \
    void route_cuts_##S(const T *values, int64_t n, const T *cuts,             \
                        int64_t n_cuts, int64_t *cells, int64_t n_cells,       \
                        T *padded, int64_t *ids)                               \
    {                                                                          \
        double low = n_cuts ? (double)cuts[0] : 0.0;                           \
        double span = n_cuts ? (double)cuts[n_cuts - 1] - low : 0.0;           \
        if (!(n_cells > 1 && span > 0 && span <= DBL_MAX)) {                   \
            for (int64_t k = 0; k < n; k++)                                    \
                ids[k] = search_cuts_##S(cuts, n_cuts, values[k]);             \
            return;                                                            \
        }                                                                      \
        /* A hair short of grid / span, so the last cut lands below the last   \
         * slot. */                                                            \
        int64_t grid = n_cells - 1, at = 0;                                    \
        double scale = (double)grid / span * (1 - 0x1p-40), last = grid;       \
        for (int64_t c = 0; c < grid; c++) {                                   \
            double edge = low + (double)c / scale;                             \
            while (at < n_cuts && (double)cuts[at] < edge)                     \
                at++;                                                          \
            cells[c] = at;                                                     \
        }                                                                      \
        cells[grid] = n_cuts;                                                  \
        padded[0] = LOWEST;                                                    \
        memcpy(padded + 1, cuts, (size_t)n_cuts * sizeof(T));                  \
        padded[n_cuts + 1] = HIGHEST;                                          \
        for (int64_t k = 0; k < n; k++) {                                      \
            T v = values[k];                                                   \
            double cell = ((double)v - low) * scale;                           \
            cell = cell > 0 ? cell : 0; /* NaN lands here too */               \
            cell = cell < last ? cell : last;                                  \
            int64_t id = cells[(int64_t)cell];                                 \
            while ((id < n_cuts) & (padded[id + 1] < v))                       \
                id++;                                                          \
            while ((id > 0) & !(padded[id] < v))                               \
                id--;                                                          \
            ids[k] = v != v ? n_cuts : id;                                     \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* Stable two-way merge of sorted a and b (ties: a first; NaN last). */    \
    void merge_##S(const T *a, int64_t na, const T *b, int64_t nb, T *out)     \
    {                                                                          \
        int64_t i = 0, j = 0, k = 0;                                           \
        while (i < na && j < nb) {                                             \
            T va = a[i], vb = b[j];                                            \
            int64_t take_a = (va <= vb) | (vb != vb);                          \
            out[k++] = take_a ? va : vb;                                       \
            i += take_a;                                                       \
            j += 1 - take_a;                                                   \
        }                                                                      \
        memcpy(out + k, a + i, (size_t)(na - i) * sizeof(T));                  \
        memcpy(out + k + (na - i), b + j, (size_t)(nb - j) * sizeof(T));       \
    }

KERNELS(int64_t, i64, INT64_MIN, INT64_MAX)
KERNELS(uint64_t, u64, 0, UINT64_MAX)
KERNELS(double, f64, -INFINITY, INFINITY)

/* A column's statistics: min and max in one pass over n >= 1 values, as
 * out[0] and out[1].  L independent running extremes per side: the compiler
 * vectorises a float min only when no lane's result depends on the order of
 * another's (integers need no help, L = 1).  `spread` sums v - v, which stays
 * 0 unless a NaN or an infinity passed; only then is the array searched for a
 * NaN, which wins as in ndarray.min/max.  Adding zero turns a -0.0 result
 * into +0.0. */
#define MINMAX(T, S, L)                                                        \
                                                                               \
    void minmax_##S(const T *a, int64_t n, T *out)                             \
    {                                                                          \
        T lo[L], hi[L], spread[L];                                             \
        int64_t k = 0;                                                         \
        for (int j = 0; j < L; j++)                                            \
            lo[j] = hi[j] = a[0], spread[j] = 0;                               \
        for (; k + L <= n; k += L)                                             \
            for (int j = 0; j < L; j++) {                                      \
                T v = a[k + j];                                                \
                lo[j] = v < lo[j] ? v : lo[j];                                 \
                hi[j] = v > hi[j] ? v : hi[j];                                 \
                spread[j] += v - v;                                            \
            }                                                                  \
        for (; k < n; k++) {                                                   \
            T v = a[k];                                                        \
            lo[0] = v < lo[0] ? v : lo[0];                                     \
            hi[0] = v > hi[0] ? v : hi[0];                                     \
            spread[0] += v - v;                                                \
        }                                                                      \
        for (int j = 1; j < L; j++) {                                          \
            lo[0] = lo[j] < lo[0] ? lo[j] : lo[0];                             \
            hi[0] = hi[j] > hi[0] ? hi[j] : hi[0];                             \
            spread[0] += spread[j];                                            \
        }                                                                      \
        for (k = 0; spread[0] != 0 && k < n; k++)                              \
            if (a[k] != a[k]) {                                                \
                lo[0] = hi[0] = a[k];                                          \
                break;                                                         \
            }                                                                  \
        out[0] = lo[0] + (T)0;                                                 \
        out[1] = hi[0] + (T)0;                                                 \
    }

MINMAX(int64_t, i64, 1)
MINMAX(double, f64, 8)

/* Integer sums wrap modulo 2**64 like ndarray.sum; float sums are left to
 * NumPy over the compacted matches, because its pairwise order is the
 * contract (a running C sum rounds differently). */
#define INTEGER_SUMS(T, S)                                                     \
                                                                               \
    int64_t sum_range_##S(const T *a, int64_t n, T low, T high, uint64_t *sum) \
    {                                                                          \
        uint64_t total = 0;                                                    \
        int64_t count = 0;                                                     \
        for (int64_t k = 0; k < n; k++) {                                      \
            T v = a[k];                                                        \
            uint64_t hit = (v >= low) & (v <= high);                           \
            total += (uint64_t)v & (0 - hit);                                  \
            count += (int64_t)hit;                                             \
        }                                                                      \
        *sum = total;                                                          \
        return count;                                                          \
    }

INTEGER_SUMS(int64_t, i64)
INTEGER_SUMS(uint64_t, u64)

/* Order-preserving uint64 keys (core/keys.py): int64 biased by the sign bit;
 * float64 by the IEEE-754 trick (flip the sign bit of non-negatives, all bits
 * of negatives), after adding zero, which gives -0.0 the key of +0.0. */
#define SIGN_BIT 0x8000000000000000ull

static inline uint64_t order_key_i64(int64_t v) { return (uint64_t)v ^ SIGN_BIT; }

static inline uint64_t order_key_f64(double v)
{
    uint64_t bits;
    v += 0.0;
    memcpy(&bits, &v, sizeof bits);
    return bits ^ ((0 - (bits >> 63)) | SIGN_BIT);
}

#define DIGIT(S, v) (((order_key_##S(v) - base) >> shift) & mask)
#define LOCAL_DIGITS 256 /* fan-outs up to this count in stack-local sets */
#define PREFETCH_AHEAD 32 /* elements (four cache lines) a write stream looks ahead */

#define KEY_KERNELS(T, S)                                                      \
                                                                               \
    /* Radix histogram: adds to counts[d] how many values have the digit       \
     * ((key - base) >> shift) & mask == d.  counts holds mask + 1 slots.      \
     * Small fan-outs count into four interleaved sets, so neighbouring        \
     * values with one digit do not wait on each other's increment. */         \
    void radix_histogram_##S(const T *values, int64_t n, uint64_t base,        \
                             int64_t shift, uint64_t mask, int64_t *counts)    \
    {                                                                          \
        int64_t k = 0;                                                         \
        if (mask < LOCAL_DIGITS) {                                             \
            int64_t local[4][LOCAL_DIGITS];                                    \
            memset(local, 0, sizeof local);                                    \
            for (; k + 4 <= n; k += 4) {                                       \
                local[0][DIGIT(S, values[k])] += 1;                            \
                local[1][DIGIT(S, values[k + 1])] += 1;                        \
                local[2][DIGIT(S, values[k + 2])] += 1;                        \
                local[3][DIGIT(S, values[k + 3])] += 1;                        \
            }                                                                  \
            for (uint64_t b = 0; b <= mask; b++)                               \
                counts[b] += local[0][b] + local[1][b] + local[2][b]           \
                             + local[3][b];                                    \
        }                                                                      \
        for (; k < n; k++)                                                     \
            counts[DIGIT(S, values[k])] += 1;                                  \
    }                                                                          \
                                                                               \
    /* Cursor scatter, stable: each value goes to out[cursors[d]] of its digit \
     * d, which then advances; digit d's region of out ends at limits[d].      \
     * The cursors persist across calls, so a bucket set whose sizes are       \
     * known is filled in place chunk by chunk.  Returns how many values did   \
     * not fit their region (they are not written; with sizes counted first   \
     * every value fits, so the check is a branch that always predicts), or    \
     * -1, having written nothing, when a cursor is negative or a limit lies   \
     * past n_out.  Each write also prefetches its stream a few lines ahead:   \
     * between two calls the caller may have scanned a column through the      \
     * caches, and no hardware prefetcher follows mask + 1 interleaved write   \
     * streams. */                                                             \
    int64_t scatter_cursor_##S(const T *values, int64_t n, uint64_t base,      \
                               int64_t shift, uint64_t mask, int64_t *cursors, \
                               const int64_t *limits, T *out, int64_t n_out)   \
    {                                                                          \
        for (uint64_t b = 0; b <= mask; b++)                                   \
            if (cursors[b] < 0 || limits[b] > n_out)                           \
                return -1;                                                     \
        int64_t lost = 0, last = n_out - 1;                                    \
        for (int64_t k = 0; k < n; k++) {                                      \
            T v = values[k];                                                   \
            uint64_t d = DIGIT(S, v);                                          \
            int64_t at = cursors[d];                                           \
            if (at < limits[d]) {                                              \
                int64_t ahead = at + PREFETCH_AHEAD;                           \
                __builtin_prefetch(out + (ahead < last ? ahead : last), 1, 3); \
                out[at] = v;                                                   \
                cursors[d] = at + 1;                                           \
            } else {                                                           \
                lost++;                                                        \
            }                                                                  \
        }                                                                      \
        return lost;                                                           \
    }

KEY_KERNELS(int64_t, i64)
KEY_KERNELS(double, f64)

/* Frame-of-reference block codec (persist/compress.py): int64 values <->
 * `value - ref` as little-endian unsigned deltas W bytes wide, one pass each
 * way.  The arithmetic is modulo 2**64, so `ref + delta` wraps exactly like
 * NumPy's int64 addition; the payload is addressed as bytes (it sits at any
 * offset of a file read), the memcpy is how a W-byte load is spelled.  The
 * seam only loads these on a little-endian host. */
#define FOR_KERNELS(U, W)                                                      \
                                                                               \
    void pack_for_##W(const int64_t *values, int64_t n, int64_t ref,           \
                      unsigned char *payload)                                  \
    {                                                                          \
        for (int64_t k = 0; k < n; k++) {                                      \
            U delta = (U)((uint64_t)values[k] - (uint64_t)ref);                \
            memcpy(payload + k * W, &delta, W);                                \
        }                                                                      \
    }                                                                          \
                                                                               \
    void unpack_for_##W(const unsigned char *payload, int64_t n, int64_t ref,  \
                        int64_t *values)                                       \
    {                                                                          \
        for (int64_t k = 0; k < n; k++) {                                      \
            U delta;                                                           \
            memcpy(&delta, payload + k * W, W);                                \
            values[k] = (int64_t)((uint64_t)ref + delta);                      \
        }                                                                      \
    }

FOR_KERNELS(uint8_t, 1)
FOR_KERNELS(uint16_t, 2)
FOR_KERNELS(uint32_t, 4)
