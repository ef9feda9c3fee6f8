//! Pivoting and unpivoting stock prices — §VI end to end, from the
//! paper's exact data to a scaled sweep.
//!
//! ```text
//! cargo run --example stock_ticker
//! ```

use sqlpp::Engine;
use sqlpp_testkit::rng::Rng;
use sqlpp_value::{Tuple, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::new();

    // The paper's closing_prices collection (Listing 19): attribute NAMES
    // carry data (ticker symbols).
    engine.load_pnotation(
        "closing_prices",
        r#"{{
            {'date': '4/1/2019', 'amzn': 1900, 'goog': 1120, 'fb': 180},
            {'date': '4/2/2019', 'amzn': 1902, 'goog': 1119, 'fb': 183}
        }}"#,
    )?;

    // UNPIVOT: names → data (Listing 20).
    let tall = engine.query(
        "SELECT c.\"date\" AS \"date\", sym AS symbol, price AS price \
         FROM closing_prices AS c, UNPIVOT c AS price AT sym \
         WHERE NOT sym = 'date'",
    )?;
    println!("Unpivoted ticker/price pairs:\n{}\n", tall.to_pretty());

    // …which makes aggregation by symbol ordinary SQL (Listing 22).
    let avgs = engine.query(
        "SELECT sym AS symbol, AVG(price) AS avg_price \
         FROM closing_prices c, UNPIVOT c AS price AT sym \
         WHERE NOT sym = 'date' GROUP BY sym",
    )?;
    println!("Average prices:\n{}\n", avgs.to_pretty());

    // PIVOT: data → names (Listings 23–25). The result is a single tuple.
    engine.load_pnotation(
        "today_stock_prices",
        r#"{{ {'symbol': 'amzn', 'price': 1900},
             {'symbol': 'goog', 'price': 1120},
             {'symbol': 'fb', 'price': 180} }}"#,
    )?;
    let wide = engine.query("PIVOT sp.price AT sp.symbol FROM today_stock_prices sp")?;
    println!("Pivoted into one tuple:\n{}\n", wide.to_pretty());

    // Grouping + pivoting (Listings 26–28): one price tuple per date.
    engine.load_pnotation(
        "stock_prices",
        r#"{{
            {'date': '4/1/2019', 'symbol': 'amzn', 'price': 1900},
            {'date': '4/1/2019', 'symbol': 'goog', 'price': 1120},
            {'date': '4/1/2019', 'symbol': 'fb', 'price': 180},
            {'date': '4/2/2019', 'symbol': 'amzn', 'price': 1902},
            {'date': '4/2/2019', 'symbol': 'goog', 'price': 1119},
            {'date': '4/2/2019', 'symbol': 'fb', 'price': 183}
        }}"#,
    )?;
    let by_date = engine.query(
        "SELECT sp.\"date\" AS \"date\", \
                (PIVOT dp.sp.price AT dp.sp.symbol \
                 FROM dates_prices AS dp) AS prices \
         FROM stock_prices AS sp \
         GROUP BY sp.\"date\" GROUP AS dates_prices",
    )?;
    println!(
        "Daily price tuples (GROUP AS + PIVOT):\n{}\n",
        by_date.to_pretty()
    );

    // A scaled sweep: 252 trading days × 500 symbols, unpivoted,
    // aggregated, and re-pivoted — names⇄data round trip at scale.
    engine.register("year_prices", gen_wide_prices(252, 500, 1));
    let start = std::time::Instant::now();
    let yearly = engine.query(
        "PIVOT avgrow.avg_price AT avgrow.symbol FROM \
         (SELECT sym AS symbol, AVG(price) AS avg_price \
          FROM year_prices AS c, UNPIVOT c AS price AT sym \
          WHERE NOT sym = 'date' GROUP BY sym) AS avgrow",
    )?;
    println!(
        "Scaled sweep: 252×500 matrix unpivoted, averaged and re-pivoted \
         into a {}-attribute tuple in {:?}.",
        yearly
            .value()
            .as_tuple()
            .map(sqlpp::Tuple::len)
            .unwrap_or(0),
        start.elapsed()
    );
    Ok(())
}

/// `rows` wide tuples (`width` price attributes plus a date), the
/// Listing 19 shape scaled up, drawn from a PRNG seeded with `seed`.
fn gen_wide_prices(rows: usize, width: usize, seed: u64) -> Value {
    let mut r = Rng::new(seed);
    let mut out = Vec::with_capacity(rows);
    for day in 0..rows {
        let mut t = Tuple::with_capacity(width + 1);
        t.insert("date", Value::Str(format!("2019-04-{:02}", day + 1)));
        for s in 0..width {
            t.insert(format!("sym{s}"), Value::Int(r.gen_range(100..5000)));
        }
        out.push(Value::Tuple(t));
    }
    Value::Bag(out)
}
