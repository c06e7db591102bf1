/*
 * nrphy's compiled kernel, bit-exact with its NumPy forms, which define it:
 * encode (ldpc.py's ldpc_encode), of which one call encodes one code block,
 * modulate (llr.py's modulate), which reads each symbol's point from its
 * order's two Q3.12 tables, demap (llr.py's llr_estimate), receive
 * (rate_adapt.py's receive_block), which deinterleaves, combines and lays
 * out one code block's decoder input, adding the block at stride Q_m into
 * each contiguous piece of the circular buffer that rate_adapt.py's
 * _selection lists for the transmission, and
 * decode, the layered offset min-sum decoder (ldpc.py), of which one call
 * decodes one code block, termination included. encode reads decode's
 * table, described below.
 *
 * A layer's block is (degree, stride) int16, row-major: row e holds edge e
 * of every lane, and each lane is one check node, as on a circulant-shift
 * datapath. Lanes come in runs of Zc, one run per base row of the layer,
 * and edge e of a run is one column block of the posteriors rotated by its
 * shift, read and written as the block's two contiguous runs. The decoder's
 * only table is each edge's (column-block start, shift) pair: a negative
 * start marks padding, where a row has fewer edges than its layer. A layer
 * of extension rows whose own parity blocks were never sent is dead: it
 * runs a read-only step that writes only those blocks, folding its other
 * edges CHUNK lanes at a time as a live layer does. The parity check
 * XORs the same rotated blocks of the hard decisions, as encode XORs them
 * of the codeword. decode takes its working memory from one malloc per
 * call and zeroes only its slack and scratch, no messages; it and encode
 * take the code as the same arguments, edges to Zc. Each
 * lane loop is its own function with restrict parameters, so that the
 * compiler vectorizes it without run-time alias checks.
 *
 * The decoder's arithmetic stays in 16-bit lanes. |q|, |msg| <= 127: the
 * posteriors and the q = post - msg read from them saturate at 127, and a
 * message is a |q| less the offset. So post - msg and q + msg fit int16
 * exactly and are clamped there, one 16-bit min and max per lane, where
 * clamping an int would widen every lane to 32 bits and back. The check
 * node runs CHUNK lanes at a time with its state in registers, so each
 * layer's stride is its lane count rounded up to whole chunks, inside the
 * one allocation. The lanes past a layer's last row, and those a whole
 * chunk reads past a run, may hold anything (a dead layer's messages are
 * never written), but lanes are independent and those are never copied
 * back. So every Zc takes the one path and gets the same result.
 *
 * Right shifts of negative values are arithmetic, as in NumPy: C leaves
 * them to the compiler, and GCC and Clang both shift arithmetically.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define OFFSET 2    /* the 0.5 min-sum offset in quarter-LLR units */
#define LLR_MAX 127 /* the decoder's messages and posteriors saturate here */
#define SOFT_MAX 31 /* channel LLRs (SoftLlr) saturate here */
#define CHUNK 32    /* check-node lanes at a time: one 512-bit register of int16 */

/* decode's termination reasons, in ldpc.py's _REASONS order; NO_MEMORY: malloc failed */
enum { PARITY_SATISFIED, DECISIONS_STABLE, MAX_ITERATIONS, NO_MEMORY = -1 };

/* Rotated-block XORs: decode's parity check and encode's solves */

/* XOR n bytes of src into dst, eight at a time: a byte loop vectorizes, but
 * at the short, odd lengths of a rotated block its scalar tail costs more. */
static void xor_bytes(uint8_t *restrict dst, const uint8_t *restrict src, int n)
{
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t a, b;
        memcpy(&a, dst + i, 8);
        memcpy(&b, src + i, 8);
        a ^= b;
        memcpy(dst + i, &a, 8);
    }
    for (; i < n; i++)
        dst[i] ^= src[i];
}

/* XOR block src, rotated left by s, into dst: dst[t] ^= src[(t + s) % Zc]. */
static void xor_rotated(uint8_t *restrict dst, const uint8_t *restrict src, int s, int Zc)
{
    xor_bytes(dst, src + s, Zc - s);
    xor_bytes(dst + Zc - s, src, s);
}

/* One base row's edges in decode's table: edge e is the (start, shift) pair
 * at edges[2 * e * stride], where stride is the row's layer's row count. */
struct row {
    const int32_t *edges;
    int stride, degree;
};

/* XOR each edge of row, its column block of cw rotated by its shift, into
 * dst, except an edge that reads dst itself; padding ends the row. */
static void xor_row(uint8_t *dst, const uint8_t *cw, struct row row, int Zc)
{
    for (int e = 0; e < row.degree; e++) {
        int start = row.edges[2 * e * row.stride], s = row.edges[2 * e * row.stride + 1];
        if (start < 0)
            break;
        if (cw + start != dst)
            xor_rotated(dst, cw + start, s, Zc);
    }
}

/* Whether n bytes are all zero: their OR, which vectorizes. */
static int all_zero(const uint8_t *v, int n)
{
    uint8_t any = 0;
    for (int i = 0; i < n; i++)
        any |= v[i];
    return !any;
}

/* Decoding */

static inline int16_t clamp(int16_t v)
{
    return v > LLR_MAX ? LLR_MAX : v < -LLR_MAX ? (int16_t)-LLR_MAX : v;
}

/* q = post - msg, saturated, over a run of n lanes of a rotated block, in
 * whole chunks: the lanes after the run, up to the next multiple of CHUNK,
 * are written too, from whatever follows the run in post and msg. A layer
 * writes its runs in increasing order, so the next run overwrites them,
 * and after its last run they are pad lanes or slack. */
static void sub_run(int16_t *restrict q, const int16_t *restrict post,
                    const int16_t *restrict msg, int n)
{
    for (int c = 0; c < n; c += CHUNK)
        for (int l = 0; l < CHUNK; l++)
            q[c + l] = clamp((int16_t)(post[c + l] - msg[c + l]));
}

/* Offset min-sum messages of a (degree, stride) block q into msg, CHUNK
 * lanes at a time, each lane's state held in registers: its two smallest
 * |q|, the first edge holding the smallest and the XOR of its q. Edge e
 * gets the smallest |q| of the other edges (min2 where e holds min1, else
 * min1) less the offset, floored at 0; under a tie min1 == min2, so which
 * tied edge holds min1 changes no message. The sign bit of q ^ (XOR of the
 * lane) is the parity of the other edges' signs, and as 0 / -1 it negates
 * by (m ^ s) - s. Then q becomes the new posterior, q + msg, saturated. */
static void check_node(int16_t *restrict q, int16_t *restrict msg, int degree, int stride)
{
    for (int c = 0; c < stride; c += CHUNK) {
        int16_t min1[CHUNK], min2[CHUNK], arg[CHUNK], sx[CHUNK];
        for (int l = 0; l < CHUNK; l++) {
            min1[l] = min2[l] = INT16_MAX;
            arg[l] = sx[l] = 0;
        }
        for (int e = 0; e < degree; e++) {
            const int16_t *qe = q + e * stride + c;
            for (int l = 0; l < CHUNK; l++) {
                int16_t a = (int16_t)(qe[l] < 0 ? -qe[l] : qe[l]);
                int16_t hi = a > min1[l] ? a : min1[l];
                min2[l] = hi < min2[l] ? hi : min2[l];
                arg[l] = a < min1[l] ? (int16_t)e : arg[l];
                min1[l] = a < min1[l] ? a : min1[l];
                sx[l] ^= qe[l];
            }
        }
        for (int e = 0; e < degree; e++) {
            int16_t edge = (int16_t)e, *qe = q + e * stride + c, *me = msg + e * stride + c;
            for (int l = 0; l < CHUNK; l++) {
                int16_t m = arg[l] == edge ? min2[l] : min1[l];
                m = (int16_t)(m > OFFSET ? m - OFFSET : 0);
                int16_t s = (int16_t)((int16_t)(qe[l] ^ sx[l]) >> 15);
                me[l] = (int16_t)((m ^ s) - s);
                qe[l] = clamp((int16_t)(qe[l] + me[l]));
            }
        }
    }
}

/* A layer's lane stride: its lanes rounded up to whole chunks. */
static int padded(int lanes)
{
    return (lanes + CHUNK - 1) / CHUNK * CHUNK;
}

/* q = block rotated left by s: its two contiguous runs, copied. */
static void copy_rotated(int16_t *restrict q, const int16_t *restrict block, int s, int Zc)
{
    memcpy(q, block + s, (size_t)(Zc - s) * sizeof *q);
    memcpy(q + Zc - s, block, (size_t)s * sizeof *q);
}

/* One layer update: q = post - msg for each edge's rotated block of post,
 * the new messages into msg and the new posteriors into q, which are then
 * copied back the same way. edges is the layer's (degree, rows) table of
 * (start, shift) pairs; edge e of row j is lanes j * Zc on in row e of q
 * and msg, which are (degree, padded(rows * Zc)). Padding reads +127 on
 * every load, so no step reads its messages but a whole chunk of sub_run
 * past the end of a run, whose q lanes the padding's own load overwrites.
 * In the first iteration msg holds nothing yet, and as every |post| <= 127
 * and every message starts at 0, q = post: it is copied, and msg is not
 * read. check_node then writes every lane's message, pad lanes included,
 * so every later iteration reads messages written in an earlier one. */
static void layer(int16_t *restrict post, const int32_t *restrict edges, int16_t *restrict q,
                  int16_t *restrict msg, int degree, int rows, int Zc, int first)
{
    int stride = padded(rows * Zc);
    for (int b = 0; b < degree * rows; b++) {
        int start = edges[2 * b], s = edges[2 * b + 1], at = b / rows * stride + b % rows * Zc;
        if (start < 0) {
            for (int t = 0; t < Zc; t++)
                q[at + t] = LLR_MAX;
        } else if (first) {
            copy_rotated(q + at, post + start, s, Zc);
        } else {
            sub_run(q + at, post + start + s, msg + at, Zc - s);
            sub_run(q + at + Zc - s, post + start, msg + at + Zc - s, s);
        }
    }
    check_node(q, msg, degree, stride);
    for (int b = 0; b < degree * rows; b++) {
        int start = edges[2 * b], s = edges[2 * b + 1], at = b / rows * stride + b % rows * Zc;
        if (start < 0)
            continue;
        memcpy(post + start + s, q + at, (size_t)(Zc - s) * sizeof *q);
        memcpy(post + start, q + at + Zc - s, (size_t)s * sizeof *q);
    }
}

/* Whether a layer is dead: each of its rows is an extension row, whose one
 * edge at or past extension (its own block, at shift 0, read by no other
 * row) holds all-zero LLRs. rows is lanes / Zc and blocks the layer's
 * degree * rows. */
static int is_dead(const int8_t *llr, const int32_t *edges, int blocks, int rows,
                   int extension, int Zc)
{
    int zero_rows = 0;
    for (int b = 0; b < blocks; b++) {
        int start = edges[2 * b];
        zero_rows += start >= extension && all_zero((const uint8_t *)llr + start, Zc);
    }
    return zero_rows == rows;
}

/* A dead layer's update. An own block of zero LLRs has q = 0 in every
 * iteration, so the row sends 0 to its other edges, which keep their
 * posteriors, and the own block's posterior is its message alone: the
 * smallest |q| of the other edges less the offset, with the XOR of their
 * signs. So the step copies the other edges straight from post into q, as
 * layer does, sets the own blocks and padding to +127, which changes
 * neither the smallest |q| (every row has another edge, |q| <= 127) nor
 * the sign, and folds q CHUNK lanes at a time in registers. Each chunk's
 * messages go to row 0 of q, whose lanes no later chunk reads, and each
 * own block (at shift 0) is copied from there. It reads and writes no
 * messages. */
static void dead_step(int16_t *restrict post, const int32_t *restrict edges,
                      int16_t *restrict q, int degree, int rows, int extension, int Zc)
{
    int stride = padded(rows * Zc);
    for (int b = 0; b < degree * rows; b++) {
        int start = edges[2 * b], s = edges[2 * b + 1], at = b / rows * stride + b % rows * Zc;
        if (start < 0 || start >= extension) {
            for (int t = 0; t < Zc; t++)
                q[at + t] = LLR_MAX;
            continue;
        }
        copy_rotated(q + at, post + start, s, Zc);
    }
    for (int c = 0; c < stride; c += CHUNK) {
        int16_t min[CHUNK], sx[CHUNK];
        for (int l = 0; l < CHUNK; l++) {
            min[l] = INT16_MAX;
            sx[l] = 0;
        }
        for (int e = 0; e < degree; e++) {
            const int16_t *qe = q + e * stride + c;
            for (int l = 0; l < CHUNK; l++) {
                int16_t a = (int16_t)(qe[l] < 0 ? -qe[l] : qe[l]);
                min[l] = a < min[l] ? a : min[l];
                sx[l] ^= qe[l];
            }
        }
        for (int l = 0; l < CHUNK; l++) {
            int16_t m = (int16_t)(min[l] > OFFSET ? min[l] - OFFSET : 0);
            int16_t s = (int16_t)(sx[l] >> 15);
            q[c + l] = (int16_t)((m ^ s) - s);
        }
    }
    for (int b = 0; b < degree * rows; b++) {
        int start = edges[2 * b];
        if (start >= extension)
            memcpy(post + start, q + b % rows * Zc, (size_t)Zc * sizeof *q);
    }
}

/* Write the hard decisions of post (bit 1 where post <= 0) over hard, which
 * holds the previous ones; return whether any changed. */
static int decide(uint8_t *restrict hard, const int16_t *restrict post, int n)
{
    uint8_t changed = 0;
    for (int i = 0; i < n; i++) {
        uint8_t h = post[i] <= 0;
        changed |= h ^ hard[i];
        hard[i] = h;
    }
    return changed;
}

/* Whether every lifted row holds: the XOR of each base row's edges, their
 * column blocks of the hard decisions rotated by their shifts, is zero. */
static int parity_holds(const uint8_t *hard, const int32_t *edges, const int32_t *shape,
                        int layers, int Zc)
{
    uint8_t acc[Zc];
    for (int i = 0; i < layers; i++) {
        int degree = shape[2 * i], rows = shape[2 * i + 1] / Zc;
        for (int j = 0; j < rows; j++) {
            memset(acc, 0, (size_t)Zc);
            xor_row(acc, hard, (struct row){edges + 2 * j, rows, degree}, Zc);
            if (!all_zero(acc, Zc))
                return 0;
        }
        edges += 2 * degree * rows;
    }
    return 1;
}

/* Decode one code block of n SoftLlr channel LLRs, whose negations are the
 * posteriors in the decoder's orientation (positive favours bit 0), for at
 * most max_iterations iterations. Each iteration runs every layer in order,
 * writes the hard decisions to hard, then stops if every parity row holds,
 * or else if no decision changed since the previous iteration. The layers
 * are given by shape, one (degree, lanes) pair per layer; edges holds each
 * layer's (degree, lanes / Zc) table of (start, shift) pairs, one layer
 * after the other. Padding edges (start < 0) read +127 in every iteration.
 * The extension rows' own blocks start at (kb + 4) * Zc; a layer
 * whose rows all own a block that is all zero at entry is dead, decided
 * once, and runs dead_step at its place in every iteration. The
 * posteriors, every layer's (degree, padded(lanes)) messages and a scratch
 * block q as large as the largest, which live and dead steps share, are
 * one malloc, each followed by CHUNK lanes of slack for sub_run's whole
 * chunks, and freed before returning. The messages are not zeroed: the
 * first iteration reads none (layer), and every later one reads those it
 * wrote. Only the posteriors' and messages' slack and q, a few KB, are
 * zeroed, which whole chunks read before anything is written there,
 * though no lane that is copied back reads them. The parity check XORs
 * hard, as encode XORs the codeword. Returns the termination reason,
 * or NO_MEMORY, and sets *iterations to the number run. */
int decode(const int8_t *llr, uint8_t *hard, const int32_t *edges, const int32_t *shape,
           int layers, int n, int kb, int Zc, int max_iterations, int *iterations)
{
    int extension = (kb + 4) * Zc, messages = 0, size = 0;
    char dead[layers];
    for (int i = 0, offset = 0; i < layers; i++) {
        int degree = shape[2 * i], rows = shape[2 * i + 1] / Zc;
        int block = degree * padded(rows * Zc);
        messages += block;
        size = block > size ? block : size;
        dead[i] = (char)is_dead(llr, edges + offset, degree * rows, rows, extension, Zc);
        offset += 2 * degree * rows;
    }
    int16_t *post = malloc((size_t)(n + messages + size + 3 * CHUNK) * sizeof *post);
    if (!post)
        return NO_MEMORY;
    int16_t *msg = post + n + CHUNK, *q = msg + messages + CHUNK;
    for (int i = 0; i < n; i++)
        post[i] = (int16_t)-llr[i];
    memset(post + n, 0, CHUNK * sizeof *post);
    memset(msg + messages, 0, CHUNK * sizeof *msg);
    memset(q, 0, (size_t)(size + CHUNK) * sizeof *q);
    int reason = MAX_ITERATIONS;
    for (int it = 1; it <= max_iterations && reason == MAX_ITERATIONS; it++) {
        const int32_t *e = edges;
        int16_t *m = msg;
        for (int i = 0; i < layers; i++) {
            int degree = shape[2 * i], lanes = shape[2 * i + 1];
            if (dead[i])
                dead_step(post, e, q, degree, lanes / Zc, extension, Zc);
            else
                layer(post, e, q, m, degree, lanes / Zc, Zc, it == 1);
            e += 2 * degree * (lanes / Zc);
            m += degree * padded(lanes);
        }
        int changed = decide(hard, post, n);
        *iterations = it;
        if (parity_holds(hard, edges, shape, layers, Zc))
            reason = PARITY_SATISFIED;
        else if (it > 1 && !changed)
            reason = DECISIONS_STABLE;
    }
    free(post);
    return reason;
}

/* Encoding: ldpc_encode's solves, from the decoder's edge table */

/* Encode one code block of n bits in place: cw holds the kb * Zc
 * information bits, and the parity blocks after them are written whole.
 * edges, shape and layers are decode's table, in which the base rows come
 * in order. The four core rows sum to count rotations of p0 (block kb) and
 * their syndrome, so p0 is the XOR of the syndrome rotated by each of
 * inverse's count shifts. Then, in row order, core row r < 3 solves block
 * kb + r + 1 and extension row r >= 4 block kb + r, each the XOR of the
 * row's other edges: a block not yet solved is still zero, and no row
 * reads a block that a later row solves. */
void encode(uint8_t *cw, const int32_t *edges, const int32_t *shape, int layers, int n,
            int kb, int Zc, const int32_t *inverse, int count)
{
    int n_rows = n / Zc - kb;
    struct row row[n_rows];
    for (int i = 0, r = 0; i < layers; i++) {
        int degree = shape[2 * i], rows = shape[2 * i + 1] / Zc;
        for (int j = 0; j < rows; j++, r++)
            row[r] = (struct row){edges + 2 * j, rows, degree};
        edges += 2 * degree * rows;
    }
    uint8_t *parity = cw + kb * Zc, syndrome[Zc];
    memset(parity, 0, (size_t)(n_rows * Zc));
    memset(syndrome, 0, (size_t)Zc);
    for (int r = 0; r < 4; r++)
        xor_row(syndrome, cw, row[r], Zc);
    for (int k = 0; k < count; k++)
        xor_rotated(parity, syndrome, inverse[k], Zc);
    for (int r = 0; r < n_rows; r++)
        if (r != 3)
            xor_row(parity + (r + (r < 3)) * Zc, cw, row[r], Zc);
}

/* Modulation: modulate's table lookup, one symbol at a time */

/* modulate's loop for one modulation order, which every call site passes as
 * a constant, so that the label loop unrolls: a symbol's label holds its
 * q_m bits, the first as its MSB, and indexes both Q3.12 tables. */
static inline __attribute__((always_inline)) void
modulate_order(int16_t *restrict re, int16_t *restrict im, const uint8_t *restrict bits, int n,
               int q_m, const int16_t *restrict table_re, const int16_t *restrict table_im)
{
    for (int i = 0; i < n; i++, bits += q_m) {
        int label = 0;
        for (int k = 0; k < q_m; k++)
            label = label << 1 | bits[k];
        re[i] = table_re[label];
        im[i] = table_im[label];
    }
}

/* Write the (re[i], im[i]) point of each of n symbols of q_m bits. q_m is 2,
 * 4, 6 or 8, every bit is 0 or 1, as modulate checks, and the tables hold
 * the 2^q_m points of that order. */
void modulate(int16_t *re, int16_t *im, const uint8_t *bits, int n, int q_m,
              const int16_t *table_re, const int16_t *table_im)
{
    switch (q_m) {
    case 2: modulate_order(re, im, bits, n, 2, table_re, table_im); break;
    case 4: modulate_order(re, im, bits, n, 4, table_re, table_im); break;
    case 6: modulate_order(re, im, bits, n, 6, table_re, table_im); break;
    case 8: modulate_order(re, im, bits, n, 8, table_re, table_im); break;
    }
}

/* Demapping: llr_estimate's fixed-point arithmetic, one symbol at a time */

static inline int sat16(int v)
{
    return v > INT16_MAX ? INT16_MAX : v < INT16_MIN ? INT16_MIN : v;
}

/* One bit's LLR from its stage value: scaled by a (Q3.12) and inv_noise
 * (Q8.8), each product saturated to 16 bits, then rounded half away from
 * zero to quarter-LLR units and saturated to +/-31. With |stage| <= 32768,
 * a <= 32767 and inv_noise <= 65535 neither product reaches 2^31. */
static inline int8_t stage_llr(int stage, int a, int inv_noise)
{
    int s = sat16((stage * a) >> 12);
    s = sat16((s * inv_noise) >> 8);
    int mag = ((s < 0 ? -s : s) + 512) >> 10;
    mag = mag > SOFT_MAX ? SOFT_MAX : mag;
    return (int8_t)(s < 0 ? -mag : mag);
}

/* demap's loop for one modulation order, which every call site passes as a
 * constant, so that the compiler unrolls the stages and vectorizes across
 * symbols. Bit 2k (2k + 1) of a symbol is stage k of its in-phase
 * (quadrature) component t: stage 0 is -t, and stage k + 1 is
 * t_k+1 = sat16(|t_k| - off[k]), with t_0 = t. */
static inline __attribute__((always_inline)) void
demap_order(int8_t *restrict out, const int16_t *restrict re, const int16_t *restrict im,
            int n, int q_m, int a, const int off[3], int inv_noise)
{
    for (int i = 0; i < n; i++, out += q_m) {
        int t[2] = {re[i], im[i]};
        int stage[2] = {-t[0], -t[1]};
        for (int k = 0; k < q_m / 2; k++) {
            for (int c = 0; c < 2; c++) {
                out[2 * k + c] = stage_llr(stage[c], a, inv_noise);
                if (k < q_m / 2 - 1) {
                    t[c] = sat16((t[c] < 0 ? -t[c] : t[c]) - off[k]);
                    stage[c] = t[c];
                }
            }
        }
    }
}

/* Write the q_m LLRs of each of n symbols (re[i], im[i]) to out, symbol by
 * symbol, from the demapper constants a, b, c, d (Q3.12) and inv_noise.
 * q_m is 2, 4, 6 or 8, a in [1, 32767], b, c and d in [0, 32767] and
 * inv_noise in [0, 65535], as DemapperParams checks. */
void demap(int8_t *out, const int16_t *re, const int16_t *im, int n, int q_m, int a, int b,
           int c, int d, int inv_noise)
{
    const int off[3] = {b, c, d};
    switch (q_m) {
    case 2: demap_order(out, re, im, n, 2, a, off, inv_noise); break;
    case 4: demap_order(out, re, im, n, 4, a, off, inv_noise); break;
    case 6: demap_order(out, re, im, n, 6, a, off, inv_noise); break;
    case 8: demap_order(out, re, im, n, 8, a, off, inv_noise); break;
    }
}

/* Receiving: rate_adapt.py's receive_block, one code block per call */

/* buf[t] += x[t * stride] for t < n, saturating at +/-31; buf may hold any
 * int8. Every call site passes stride as a constant, so the loads unroll. */
static inline __attribute__((always_inline)) void
add_strided(int8_t *restrict buf, const int8_t *restrict x, int n, int stride)
{
    for (int t = 0; t < n; t++) {
        int v = buf[t] + x[t * stride];
        buf[t] = (int8_t)(v > SOFT_MAX ? SOFT_MAX : v < -SOFT_MAX ? -SOFT_MAX : v);
    }
}

/* Combine one code block's e_r LLRs, in interleaved order, into its soft
 * buffer buf of n_cb values and write the decoder's n = head + n_cb input
 * to out. pieces holds (start, stop) pairs of buffer positions, in the
 * order the deinterleaved values fill them, summing to e_r: rate_adapt.py's
 * _selection builds them once per transmission layout, and rate_match and
 * the NumPy combine read the same. Deinterleaved value j is slice
 * i = j / k, k = e_r / q_m, read at llrs[(j - i * k) * q_m + i], so each
 * part of a piece that stays in one slice is one strided saturating add,
 * and a piece that wraps onto earlier ones adds to their sums. Then out
 * holds head zeros (the punctured columns), the buffer, and -31 over the
 * fillers [fs, fe). q_m is 2, 4, 6 or 8 and divides e_r, as
 * RateMatchConfig checks; receive_block passes buffer_filler_range's
 * bounds for the buffer's checked count, so 0 <= fs <= fe = K - 2 Zc < n_cb. */
void receive(int8_t *out, int8_t *buf, const int8_t *llrs, int e_r, int q_m,
             const int32_t *pieces, int n_cb, int fs, int fe, int head)
{
    const int k = e_r / q_m;
    for (int j = 0; j < e_r; pieces += 2)
        for (int at = pieces[0], stop = pieces[1]; at < stop;) {
            int i = j / k, slice_end = (i + 1) * k;
            int n = stop - at < slice_end - j ? stop - at : slice_end - j;
            const int8_t *x = llrs + (j - i * k) * q_m + i;
            switch (q_m) {
            case 2: add_strided(buf + at, x, n, 2); break;
            case 4: add_strided(buf + at, x, n, 4); break;
            case 6: add_strided(buf + at, x, n, 6); break;
            case 8: add_strided(buf + at, x, n, 8); break;
            }
            j += n;
            at += n;
        }
    memset(out, 0, (size_t)head);
    memcpy(out + head, buf, (size_t)n_cb);
    memset(out + head + fs, -SOFT_MAX, (size_t)(fe - fs));
}
