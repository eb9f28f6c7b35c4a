package tpch

// DB bundles the eight TPC-H tables over one simulated device, loads them at
// a scale factor, and applies the RF1/RF2 refresh streams as table batches
// (so the updates land in whichever differential structure the delta mode
// selects).

import (
	"fmt"

	"pdtstore/internal/colstore"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// DB is one loaded TPC-H database instance.
type DB struct {
	Device *colstore.Device
	Mode   table.DeltaMode

	Region   *table.Table
	Nation   *table.Table
	Supplier *table.Table
	Customer *table.Table
	Part     *table.Table
	PartSupp *table.Table
	Orders   *table.Table
	Lineitem *table.Table

	Gen *Gen

	// NoPrune and Workers are applied to every plan the queries build
	// (Plan.NoPrune, Plan.Parallel): the differential suites run the workload
	// with and without block pruning and on one or several workers and expect
	// byte-identical answers. The zero values are the engine's defaults.
	NoPrune bool
	Workers int
}

// Load generates and bulk-loads a database at the given scale factor.
func Load(sf float64, mode table.DeltaMode, compressed bool, blockRows int) (*DB, error) {
	dev := colstore.NewDevice()
	g := NewGen(sf, 19920601) // fixed seed: identical data across modes
	opts := func() table.Options {
		return table.Options{Mode: mode, BlockRows: blockRows, Compressed: compressed, Device: dev}
	}
	db := &DB{Device: dev, Mode: mode, Gen: g}
	var err error
	load := func(name string, schema *types.Schema, rows []types.Row) *table.Table {
		if err != nil {
			return nil
		}
		var t *table.Table
		t, err = table.Load(schema, rows, opts())
		if err != nil {
			err = fmt.Errorf("tpch: loading %s: %w", name, err)
		}
		return t
	}
	db.Region = load("region", RegionSchema, g.RegionRows())
	db.Nation = load("nation", NationSchema, g.NationRows())
	db.Supplier = load("supplier", SupplierSchema, g.SupplierRows())
	db.Customer = load("customer", CustomerSchema, g.CustomerRows())
	db.Part = load("part", PartSchema, g.PartRows())
	db.PartSupp = load("partsupp", PartSuppSchema, g.PartSuppRows())
	orders, lineitems := g.OrdersAndLineitems()
	db.Orders = load("orders", OrdersSchema, orders)
	db.Lineitem = load("lineitem", LineitemSchema, lineitems)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// ApplyRefresh runs the paper's update workload: streams pairs of RF1
// (insert) and RF2 (delete) batches, each touching fraction×|orders| orders
// (TPC-H specifies 0.1%). Each stream's refresh sets are identical across
// modes because the generator is deterministic and shared via the seed.
func (db *DB) ApplyRefresh(streams int, fraction float64) error {
	if db.Mode == table.ModeNone {
		return nil // reference runs stay clean
	}
	n := int(float64(db.Gen.NOrders) * fraction)
	if n < 1 {
		n = 1
	}
	refresh := func(rf string, orders, lines []table.Op) error {
		if _, err := db.Orders.ApplyBatch(orders); err != nil {
			return fmt.Errorf("tpch: %s orders: %w", rf, err)
		}
		if _, err := db.Lineitem.ApplyBatch(lines); err != nil {
			return fmt.Errorf("tpch: %s lineitem: %w", rf, err)
		}
		return nil
	}
	for s := 0; s < streams; s++ {
		// RF1: scattered inserts into both big tables, one batch per table.
		// The generator never repeats a key (RF1 draws unused gap slots, RF2
		// distinct existing orders), so each batch's keys are distinct.
		var orders, lines []table.Op
		for _, ro := range db.Gen.RF1(n) {
			orders = append(orders, table.Op{Kind: table.OpInsert, Row: ro.Order})
			for _, lr := range ro.Lineitems {
				lines = append(lines, table.Op{Kind: table.OpInsert, Row: lr})
			}
		}
		if err := refresh("RF1", orders, lines); err != nil {
			return err
		}
		// RF2: scattered deletes of existing orders and their lineitems.
		orders, lines = nil, nil
		for _, meta := range db.Gen.RF2(n) {
			orders = append(orders, table.Op{Kind: table.OpDelete, Key: types.Row{types.DateVal(meta.Date), types.Int(meta.Key)}})
			for ln := 1; ln <= meta.Lines; ln++ {
				lines = append(lines, table.Op{Kind: table.OpDelete, Key: types.Row{types.Int(meta.Key), types.Int(int64(ln))}})
			}
		}
		if err := refresh("RF2", orders, lines); err != nil {
			return err
		}
	}
	return nil
}

// Tables returns the big and dimension tables with their names.
func (db *DB) Tables() map[string]*table.Table {
	return map[string]*table.Table{
		"region": db.Region, "nation": db.Nation, "supplier": db.Supplier,
		"customer": db.Customer, "part": db.Part, "partsupp": db.PartSupp,
		"orders": db.Orders, "lineitem": db.Lineitem,
	}
}
