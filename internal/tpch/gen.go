// Package tpch is the workload substrate of the paper's evaluation (§5.3,
// Appendix A): a deterministic, in-memory TPC-H data generator and the
// modified 14-query workload, lowered to engine-neutral MAL plans exactly
// once and executed under any of the four configurations.
//
// Appendix-A adaptations carried into the schema:
//   - every DECIMAL column is REAL (float32),
//   - strings are dictionary-encoded into int32 codes — Ocelot supports only
//     four-byte types and string *equality* (§3.1), and dictionary codes
//     preserve exactly that,
//   - dates are int32 yyyymmdd values (order-preserving, four bytes),
//   - PK-FK join indexes are precomputed as OID position columns, matching
//     MonetDB's precomputed join indexes (§4.1.5: "These joins only require
//     a projection against the join index").
package tpch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bat"
	"repro/internal/mem"
)

// DB is one generated TPC-H instance.
type DB struct {
	SF float64
	// Theta is the Zipfian skew exponent the instance was generated with
	// (0 = the uniform draws of stock TPC-H).
	Theta float64

	Region, Nation, Supplier, Customer, Part, PartSupp, Orders, Lineitem *bat.Table

	dicts map[string][]string
	codes map[string]map[string]int32
}

// Rows per table at scale factor 1.
const (
	sfSupplier = 10_000
	sfCustomer = 150_000
	sfPart     = 200_000
	sfOrders   = 1_500_000
)

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationDefs maps the 25 TPC-H nations to their region, in nationkey order.
var nationDefs = []struct {
	name   string
	region int32
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var orderStatus = []string{"F", "O", "P"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var returnFlags = []string{"R", "A", "N"}
var lineStatus = []string{"O", "F"}
var shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var containerPrefix = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
var containerSuffix = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
var typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

// Ymd encodes a calendar date as the int32 yyyymmdd the date columns use.
func Ymd(y, m, d int) int32 { return int32(y*10000 + m*100 + d) }

func dateToI32(t time.Time) int32 { return Ymd(t.Year(), int(t.Month()), t.Day()) }

// Generate builds a TPC-H instance at the given scale factor (row counts
// scale linearly; sf 0.01 ≈ 60k lineitems). The same (sf, seed) pair always
// yields the same data.
func Generate(sf float64, seed int64) *DB {
	return GenerateSkewed(sf, seed, 0)
}

// GenerateSkewed is Generate with a Zipfian skew knob: theta > 0 draws the
// skewable choices (which customer orders, which part/supplier a line names,
// order dates, quantities, market segments) from a Zipf(theta) distribution
// over their domains instead of uniformly, concentrating mass on a few hot
// values the way real workloads do. theta == 0 reproduces Generate's output
// byte for byte; the same (sf, seed, theta) triple always yields the same
// data. Columns carry no statistics: placement prices a cold run with its
// constant model and a sealed template with the sizes that run observed.
func GenerateSkewed(sf float64, seed int64, theta float64) *DB {
	if sf <= 0 {
		sf = 0.01
	}
	if theta < 0 {
		theta = 0
	}
	db := &DB{
		SF:    sf,
		Theta: theta,
		dicts: make(map[string][]string),
		codes: make(map[string]map[string]int32),
	}
	db.registerDicts()
	db.genRegionNation()
	db.genSupplier(scale(sfSupplier, sf), seed+1)
	db.genCustomer(scale(sfCustomer, sf), seed+2)
	db.genPart(scale(sfPart, sf), seed+3)
	db.genPartSupp(seed + 4)
	db.genOrdersAndLineitem(scale(sfOrders, sf), seed+5)
	return db
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^theta via an inverse
// cumulative table (theta <= 0 degenerates to the generator's plain uniform
// draw, consuming the identical random sequence). rand.Zipf is avoided on
// purpose: it requires s > 1, and the classic TPC-skew literature uses
// theta ∈ (0, 1] too.
type zipf struct {
	r     *rand.Rand
	theta float64
	cum   []float64 // cumulative weights; nil for uniform
}

func newZipf(r *rand.Rand, n int, theta float64) *zipf {
	z := &zipf{r: r, theta: theta}
	if theta > 0 && n > 1 {
		z.cum = make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1 / powf(float64(i+1), theta)
			z.cum[i] = total
		}
	}
	return z
}

// next returns a rank in [0, n); n must equal the table size the picker was
// built for when skewed.
func (z *zipf) next(n int) int {
	if z.cum == nil {
		return z.r.Intn(n)
	}
	u := z.r.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func powf(x, y float64) float64 {
	if y == 1 {
		return x
	}
	return math.Pow(x, y)
}

func scale(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

func (db *DB) registerDicts() {
	db.addDict("r_name", regionNames)
	names := make([]string, len(nationDefs))
	for i, n := range nationDefs {
		names[i] = n.name
	}
	db.addDict("n_name", names)
	db.addDict("c_mktsegment", segments)
	db.addDict("o_orderstatus", orderStatus)
	db.addDict("o_orderpriority", priorities)
	db.addDict("l_returnflag", returnFlags)
	db.addDict("l_linestatus", lineStatus)
	db.addDict("l_shipinstruct", shipInstructs)
	db.addDict("l_shipmode", shipModes)

	brands := make([]string, 0, 25)
	for m := 1; m <= 5; m++ {
		for n := 1; n <= 5; n++ {
			brands = append(brands, fmt.Sprintf("Brand#%d%d", m, n))
		}
	}
	db.addDict("p_brand", brands)

	containers := make([]string, 0, len(containerPrefix)*len(containerSuffix))
	for _, p := range containerPrefix {
		for _, s := range containerSuffix {
			containers = append(containers, p+" "+s)
		}
	}
	db.addDict("p_container", containers)

	types := make([]string, 0, len(typeSyl1)*len(typeSyl2)*len(typeSyl3))
	for _, a := range typeSyl1 {
		for _, b := range typeSyl2 {
			for _, c := range typeSyl3 {
				types = append(types, a+" "+b+" "+c)
			}
		}
	}
	db.addDict("p_type", types)
}

func (db *DB) addDict(col string, vals []string) {
	db.dicts[col] = vals
	m := make(map[string]int32, len(vals))
	for i, v := range vals {
		m[v] = int32(i)
	}
	db.codes[col] = m
}

// Code returns the dictionary code of a string value, as the float64 the
// plan layer passes to selections. Unknown values panic: queries are
// compiled in-process and a typo is a programming error.
func (db *DB) Code(col, val string) float64 {
	m, ok := db.codes[col]
	if !ok {
		panic(fmt.Sprintf("tpch: column %q has no dictionary", col))
	}
	c, ok := m[val]
	if !ok {
		panic(fmt.Sprintf("tpch: value %q not in dictionary of %q", val, col))
	}
	return float64(c)
}

// Decode maps a dictionary code back to its string (for display).
func (db *DB) Decode(col string, code int32) string {
	d := db.dicts[col]
	if code < 0 || int(code) >= len(d) {
		return fmt.Sprintf("?%d", code)
	}
	return d[code]
}

func (db *DB) genRegionNation() {
	rk := mem.AllocI32(len(regionNames))
	rn := mem.AllocI32(len(regionNames))
	for i := range regionNames {
		rk[i], rn[i] = int32(i), int32(i)
	}
	db.Region = bat.NewTable("region").
		Add("r_regionkey", keyCol("r_regionkey", rk)).
		Add("r_name", bat.NewI32("r_name", rn))

	nk := mem.AllocI32(len(nationDefs))
	nn := mem.AllocI32(len(nationDefs))
	nr := mem.AllocI32(len(nationDefs))
	npos := mem.AllocU32(len(nationDefs))
	for i, n := range nationDefs {
		nk[i], nn[i], nr[i] = int32(i), int32(i), n.region
		npos[i] = uint32(n.region)
	}
	db.Nation = bat.NewTable("nation").
		Add("n_nationkey", keyCol("n_nationkey", nk)).
		Add("n_name", bat.NewI32("n_name", nn)).
		Add("n_regionkey", bat.NewI32("n_regionkey", nr)).
		Add("n_regionpos", bat.NewOID("n_regionpos", npos))
}

func (db *DB) genSupplier(n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	sk := mem.AllocI32(n)
	nat := mem.AllocI32(n)
	natpos := mem.AllocU32(n)
	bal := mem.AllocF32(n)
	for i := 0; i < n; i++ {
		sk[i] = int32(i + 1)
		k := int32(r.Intn(len(nationDefs)))
		nat[i] = k
		natpos[i] = uint32(k)
		bal[i] = float32(r.Intn(1100000)-100000) / 100
	}
	db.Supplier = bat.NewTable("supplier").
		Add("s_suppkey", keyCol("s_suppkey", sk)).
		Add("s_nationkey", bat.NewI32("s_nationkey", nat)).
		Add("s_nationpos", bat.NewOID("s_nationpos", natpos)).
		Add("s_acctbal", bat.NewF32("s_acctbal", bal))
}

func (db *DB) genCustomer(n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ck := mem.AllocI32(n)
	nat := mem.AllocI32(n)
	natpos := mem.AllocU32(n)
	seg := mem.AllocI32(n)
	bal := mem.AllocF32(n)
	zseg := newZipf(r, len(segments), db.Theta)
	for i := 0; i < n; i++ {
		ck[i] = int32(i + 1)
		k := int32(r.Intn(len(nationDefs)))
		nat[i] = k
		natpos[i] = uint32(k)
		seg[i] = int32(zseg.next(len(segments)))
		bal[i] = float32(r.Intn(1100000)-100000) / 100
	}
	db.Customer = bat.NewTable("customer").
		Add("c_custkey", keyCol("c_custkey", ck)).
		Add("c_nationkey", bat.NewI32("c_nationkey", nat)).
		Add("c_nationpos", bat.NewOID("c_nationpos", natpos)).
		Add("c_mktsegment", bat.NewI32("c_mktsegment", seg)).
		Add("c_acctbal", bat.NewF32("c_acctbal", bal))
}

func (db *DB) genPart(n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pk := mem.AllocI32(n)
	brand := mem.AllocI32(n)
	typ := mem.AllocI32(n)
	size := mem.AllocI32(n)
	cont := mem.AllocI32(n)
	retail := mem.AllocF32(n)
	for i := 0; i < n; i++ {
		pk[i] = int32(i + 1)
		brand[i] = int32(r.Intn(25))
		typ[i] = int32(r.Intn(150))
		size[i] = int32(r.Intn(50) + 1)
		cont[i] = int32(r.Intn(40))
		// p_retailprice per spec: 90000+((P/10)%20001)+100*(P%1000), /100.
		p := i + 1
		retail[i] = float32(90000+(p/10)%20001+100*(p%1000)) / 100
	}
	db.Part = bat.NewTable("part").
		Add("p_partkey", keyCol("p_partkey", pk)).
		Add("p_brand", bat.NewI32("p_brand", brand)).
		Add("p_type", bat.NewI32("p_type", typ)).
		Add("p_size", bat.NewI32("p_size", size)).
		Add("p_container", bat.NewI32("p_container", cont)).
		Add("p_retailprice", bat.NewF32("p_retailprice", retail))
}

func (db *DB) genPartSupp(seed int64) {
	r := rand.New(rand.NewSource(seed))
	nPart := db.Part.Rows()
	nSupp := db.Supplier.Rows()
	n := nPart * 4
	pk := mem.AllocI32(n)
	ppos := mem.AllocU32(n)
	sk := mem.AllocI32(n)
	spos := mem.AllocU32(n)
	avail := mem.AllocI32(n)
	cost := mem.AllocF32(n)
	k := 0
	for p := 0; p < nPart; p++ {
		for s := 0; s < 4; s++ {
			supp := (p + s*(nPart/4+1)) % nSupp
			pk[k] = int32(p + 1)
			ppos[k] = uint32(p)
			sk[k] = int32(supp + 1)
			spos[k] = uint32(supp)
			avail[k] = int32(r.Intn(9999) + 1)
			cost[k] = float32(r.Intn(99900)+100) / 100
			k++
		}
	}
	db.PartSupp = bat.NewTable("partsupp").
		Add("ps_partkey", bat.NewI32("ps_partkey", pk)).
		Add("ps_partpos", bat.NewOID("ps_partpos", ppos)).
		Add("ps_suppkey", bat.NewI32("ps_suppkey", sk)).
		Add("ps_supppos", bat.NewOID("ps_supppos", spos)).
		Add("ps_availqty", bat.NewI32("ps_availqty", avail)).
		Add("ps_supplycost", bat.NewF32("ps_supplycost", cost))
}

// genOrdersAndLineitem generates both tables together: lineitem dates hang
// off the order date, and o_orderstatus/o_totalprice are derived from the
// lines as the spec prescribes.
func (db *DB) genOrdersAndLineitem(nOrders int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	nCust := db.Customer.Rows()
	nPart := db.Part.Rows()
	nSupp := db.Supplier.Rows()
	startDate := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	// Order dates span STARTDATE .. ENDDATE-151 days per spec.
	orderDays := int(time.Date(1998, 8, 2, 0, 0, 0, 0, time.UTC).Sub(startDate).Hours()/24) - 151
	currentDate := Ymd(1995, 6, 17)

	ok := mem.AllocI32(nOrders)
	ck := mem.AllocI32(nOrders)
	cpos := mem.AllocU32(nOrders)
	ostat := mem.AllocI32(nOrders)
	ototal := mem.AllocF32(nOrders)
	odate := mem.AllocI32(nOrders)
	oprio := mem.AllocI32(nOrders)

	// Lineitem columns grow as orders emit 1-7 lines each.
	est := nOrders * 4
	var (
		lok    = make([]int32, 0, est)
		lopos  = make([]uint32, 0, est)
		lpk    = make([]int32, 0, est)
		lppos  = make([]uint32, 0, est)
		lsk    = make([]int32, 0, est)
		lspos  = make([]uint32, 0, est)
		lnum   = make([]int32, 0, est)
		lqty   = make([]float32, 0, est)
		lprice = make([]float32, 0, est)
		ldisc  = make([]float32, 0, est)
		ltax   = make([]float32, 0, est)
		lret   = make([]int32, 0, est)
		lstat  = make([]int32, 0, est)
		lship  = make([]int32, 0, est)
		lcmt   = make([]int32, 0, est)
		lrcpt  = make([]int32, 0, est)
		linstr = make([]int32, 0, est)
		lmode  = make([]int32, 0, est)
	)
	retailOf := db.Part.Col("p_retailprice").F32s()

	// The skewable draws (hot customers, hot order dates, hot parts and
	// suppliers, popular quantities) go through Zipf pickers; at Theta == 0
	// each picker is a plain r.Intn and the random sequence is unchanged.
	zcust := newZipf(r, nCust, db.Theta)
	zdays := newZipf(r, orderDays, db.Theta)
	zpart := newZipf(r, nPart, db.Theta)
	zsupp := newZipf(r, nSupp, db.Theta)
	zqty := newZipf(r, 50, db.Theta)

	for o := 0; o < nOrders; o++ {
		ok[o] = int32(o + 1)
		cust := zcust.next(nCust)
		ck[o] = int32(cust + 1)
		cpos[o] = uint32(cust)
		od := startDate.AddDate(0, 0, zdays.next(orderDays))
		odate[o] = dateToI32(od)
		oprio[o] = int32(r.Intn(len(priorities)))

		lines := r.Intn(7) + 1
		allShipped, anyShipped := true, false
		var total float64
		for ln := 0; ln < lines; ln++ {
			part := zpart.next(nPart)
			supp := zsupp.next(nSupp)
			qty := float32(zqty.next(50) + 1)
			price := qty * retailOf[part]
			disc := float32(r.Intn(11)) / 100
			tax := float32(r.Intn(9)) / 100
			ship := od.AddDate(0, 0, r.Intn(121)+1)
			commit := od.AddDate(0, 0, r.Intn(61)+30)
			receipt := ship.AddDate(0, 0, r.Intn(30)+1)
			shipped := dateToI32(receipt) <= currentDate
			if shipped {
				anyShipped = true
			} else {
				allShipped = false
			}
			// Return flag: R/A for shipped lines, N otherwise (spec 4.2.3).
			var rf int32
			if shipped {
				rf = int32(r.Intn(2)) // R or A
			} else {
				rf = 2 // N
			}
			var ls int32 // O
			if dateToI32(ship) <= currentDate {
				ls = 1 // F
			}
			lok = append(lok, ok[o])
			lopos = append(lopos, uint32(o))
			lpk = append(lpk, int32(part+1))
			lppos = append(lppos, uint32(part))
			lsk = append(lsk, int32(supp+1))
			lspos = append(lspos, uint32(supp))
			lnum = append(lnum, int32(ln+1))
			lqty = append(lqty, qty)
			lprice = append(lprice, price)
			ldisc = append(ldisc, disc)
			ltax = append(ltax, tax)
			lret = append(lret, rf)
			lstat = append(lstat, ls)
			lship = append(lship, dateToI32(ship))
			lcmt = append(lcmt, dateToI32(commit))
			lrcpt = append(lrcpt, dateToI32(receipt))
			linstr = append(linstr, int32(r.Intn(len(shipInstructs))))
			lmode = append(lmode, int32(r.Intn(len(shipModes))))
			total += float64(price * (1 + tax) * (1 - disc))
		}
		switch {
		case allShipped:
			ostat[o] = 0 // F
		case !anyShipped:
			ostat[o] = 1 // O
		default:
			ostat[o] = 2 // P
		}
		ototal[o] = float32(total)
	}

	db.Orders = bat.NewTable("orders").
		Add("o_orderkey", keyCol("o_orderkey", ok)).
		Add("o_custkey", bat.NewI32("o_custkey", ck)).
		Add("o_custpos", bat.NewOID("o_custpos", cpos)).
		Add("o_orderstatus", bat.NewI32("o_orderstatus", ostat)).
		Add("o_totalprice", bat.NewF32("o_totalprice", ototal)).
		Add("o_orderdate", bat.NewI32("o_orderdate", odate)).
		Add("o_orderpriority", bat.NewI32("o_orderpriority", oprio))

	db.Lineitem = bat.NewTable("lineitem").
		Add("l_orderkey", wrapI32("l_orderkey", lok)).
		Add("l_orderpos", wrapOID("l_orderpos", lopos)).
		Add("l_partkey", wrapI32("l_partkey", lpk)).
		Add("l_partpos", wrapOID("l_partpos", lppos)).
		Add("l_suppkey", wrapI32("l_suppkey", lsk)).
		Add("l_supppos", wrapOID("l_supppos", lspos)).
		Add("l_linenumber", wrapI32("l_linenumber", lnum)).
		Add("l_quantity", wrapF32("l_quantity", lqty)).
		Add("l_extendedprice", wrapF32("l_extendedprice", lprice)).
		Add("l_discount", wrapF32("l_discount", ldisc)).
		Add("l_tax", wrapF32("l_tax", ltax)).
		Add("l_returnflag", wrapI32("l_returnflag", lret)).
		Add("l_linestatus", wrapI32("l_linestatus", lstat)).
		Add("l_shipdate", wrapI32("l_shipdate", lship)).
		Add("l_commitdate", wrapI32("l_commitdate", lcmt)).
		Add("l_receiptdate", wrapI32("l_receiptdate", lrcpt)).
		Add("l_shipinstruct", wrapI32("l_shipinstruct", linstr)).
		Add("l_shipmode", wrapI32("l_shipmode", lmode))
}

// keyCol marks a dense 1-based primary key column.
func keyCol(name string, vals []int32) *bat.BAT {
	b := bat.NewI32(name, vals)
	b.Props.Sorted, b.Props.Key = true, true
	return b
}

// The wrap helpers copy grown slices into aligned heaps.
func wrapI32(name string, vals []int32) *bat.BAT {
	s := mem.AllocI32(len(vals))
	copy(s, vals)
	return bat.NewI32(name, s)
}

func wrapF32(name string, vals []float32) *bat.BAT {
	s := mem.AllocF32(len(vals))
	copy(s, vals)
	return bat.NewF32(name, s)
}

func wrapOID(name string, vals []uint32) *bat.BAT {
	s := mem.AllocU32(len(vals))
	copy(s, vals)
	return bat.NewOID(name, s)
}

// Tables returns all eight tables for inspection tools.
func (db *DB) Tables() []*bat.Table {
	return []*bat.Table{
		db.Region, db.Nation, db.Supplier, db.Customer,
		db.Part, db.PartSupp, db.Orders, db.Lineitem,
	}
}

// TotalBytes returns the footprint of all value heaps.
func (db *DB) TotalBytes() int64 {
	var total int64
	for _, t := range db.Tables() {
		for _, c := range t.Cols {
			total += c.HeapBytes()
		}
	}
	return total
}

// NationPos returns the position of a nation by name (for plan constants).
func (db *DB) NationPos(name string) float64 {
	for i, n := range nationDefs {
		if n.name == name {
			return float64(i)
		}
	}
	panic(fmt.Sprintf("tpch: unknown nation %q", name))
}

// RegionPos returns the position of a region by name.
func (db *DB) RegionPos(name string) float64 {
	for i, r := range regionNames {
		if r == name {
			return float64(i)
		}
	}
	panic(fmt.Sprintf("tpch: unknown region %q", name))
}
