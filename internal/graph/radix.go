package graph

// radixDigit is the width of one RadixSort pass: 2,048 counters (16 KB) fit
// in L1 next to the scatter's write fronts.
const radixDigit = 11

// RadixSort stably orders the elements of src by the low keyBits bits of
// key(x), with one counting pass that histograms every digit and then one
// scatter per 11-bit digit, least significant first. A digit every element
// shares costs no scatter.
//
// The first scatter reads src and writes dst; later ones alternate between
// dst and tmp, so src is never written unless the caller passes it as tmp to
// sort in place. dst and tmp must hold at least len(src) elements. The result
// is the buffer the last scatter wrote (len(src) elements of dst or tmp), or
// src itself when no scatter was needed.
func RadixSort[T any](src, dst, tmp []T, keyBits int, key func(T) uint64) []T {
	const mask = 1<<radixDigit - 1
	if len(src) < 2 || keyBits <= 0 {
		return src
	}
	counts := make([][1 << radixDigit]int, (keyBits+radixDigit-1)/radixDigit)
	for _, x := range src {
		k := key(x)
		for p := range counts {
			counts[p][k>>(p*radixDigit)&mask]++
		}
	}
	first := key(src[0])
	from, to := src, dst[:len(src)]
	for p := range counts {
		shift, next := p*radixDigit, &counts[p]
		if next[first>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, x := range from {
			d := key(x) >> shift & mask
			to[next[d]] = x
			next[d]++
		}
		from, to, tmp = to, tmp[:len(src)], to
	}
	return from
}
