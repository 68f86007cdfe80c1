package ssb

import (
	"bufio"
	"fmt"
	"io"
)

// TableNames lists the exportable tables in dbgen's naming.
func TableNames() []string {
	return []string{"lineorder", "customer", "supplier", "part", "date"}
}

// WriteTable writes one table in dbgen's pipe-delimited .tbl format, so the
// generated data can be loaded into any SSB-capable system for
// cross-validation. Monetary values are written in cents, flags as 0/1.
func WriteTable(w io.Writer, d *Data, table string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var err error
	switch table {
	case "lineorder":
		for i := 0; i < d.Rows(); i++ {
			lo := d.Row(i)
			_, err = fmt.Fprintf(bw, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%s|\n",
				lo.OrderKey, lo.LineNumber, lo.CustKey, lo.PartKey, lo.SuppKey,
				lo.OrderDate, lo.OrdPriority, lo.ShipPriority, lo.Quantity,
				lo.ExtendedPrice, lo.OrdTotalPrice, lo.Discount, lo.Revenue,
				lo.SupplyCost, lo.Tax, lo.CommitDate, ShipModeName(lo.ShipMode))
			if err != nil {
				return err
			}
		}
	case "customer":
		for i := range d.Customer {
			c := &d.Customer[i]
			_, err = fmt.Fprintf(bw, "%d|%s|%s|%s|%s|%s|%s|%s|\n",
				c.CustKey, c.Name, c.Address, c.City, c.Nation, c.Region, c.Phone, c.MktSegment)
			if err != nil {
				return err
			}
		}
	case "supplier":
		for i := range d.Supplier {
			s := &d.Supplier[i]
			_, err = fmt.Fprintf(bw, "%d|%s|%s|%s|%s|%s|%s|\n",
				s.SuppKey, s.Name, s.Address, s.City, s.Nation, s.Region, s.Phone)
			if err != nil {
				return err
			}
		}
	case "part":
		for i := range d.Part {
			p := &d.Part[i]
			_, err = fmt.Fprintf(bw, "%d|%s|%s|%s|%s|%s|%s|%d|%s|\n",
				p.PartKey, p.Name, p.MFGR, p.Category, p.Brand1, p.Color, p.Type, p.Size, p.Container)
			if err != nil {
				return err
			}
		}
	case "date":
		for i := range d.Date {
			dt := &d.Date[i]
			_, err = fmt.Fprintf(bw, "%d|%s|%s|%s|%d|%d|%s|%d|%d|%d|%d|%d|%s|%d|%d|%d|\n",
				dt.DateKey, dt.Date, dt.DayOfWeek, dt.Month, dt.Year, dt.YearMonthNum,
				dt.YearMonth, dt.DayNumInWeek, dt.DayNumInMonth, dt.DayNumInYear,
				dt.MonthNumInYear, dt.WeekNumInYear, dt.SellingSeason,
				b2i(dt.LastDayInWeekFl), b2i(dt.HolidayFl), b2i(dt.WeekdayFl))
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("ssb: unknown table %q (have %v)", table, TableNames())
	}
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
